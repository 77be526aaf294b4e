//! `v-benchmark`: see `README.md`, or run with `help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(v_benchmark::cli::main(&args));
}
