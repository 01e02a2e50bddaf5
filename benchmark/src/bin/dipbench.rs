//! The untraced benchmark binary: end-to-end metrics only.

fn main() {
    let args = dip_benchmark::cli::Args::parse();
    std::process::exit(dip_benchmark::run::main_untraced(&args));
}
