fn main() {
    std::process::exit(upcxx_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
