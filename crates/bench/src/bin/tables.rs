//! Prints every reproduced table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p pdn-bench --bin tables            # everything
//! cargo run --release -p pdn-bench --bin tables -- table5  # one artifact
//! ```
//!
//! Artifacts: `table1 table2 table3 table4 table5 table6 fig4 fig5
//! freeriding ipleak token mitigation`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    print!("{}", pdn_bench::render_tables(pdn_bench::SEED, want));
}
