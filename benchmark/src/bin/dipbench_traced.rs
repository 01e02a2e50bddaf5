//! The traced benchmark binary: per-layer metrics, spans, and exact
//! allocation counts (the counting allocator lives only here).

#[global_allocator]
static ALLOCATOR: dip_benchmark::alloc::Counting = dip_benchmark::alloc::Counting;

fn main() {
    let args = dip_benchmark::cli::Args::parse();
    std::process::exit(dip_benchmark::trace::main_traced(&args));
}
