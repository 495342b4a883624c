//! Criterion benchmark crate for the Security RBSG reproduction.
//!
//! Three suites live under `benches/`, each recording a `BENCH_*.json`
//! summary and run by CI:
//! * `feistel` — scalar vs lane-parallel Feistel translation throughput;
//! * `sharded` — the bank-sharded trace runner across worker counts;
//! * `raa_split` — the RAA lifetime round engine across worker counts.
