//! Figure 6(b): average response-time reduction of
//! LevelAdjust+AccessEval relative to LDPC-in-SSD as the device wears
//! from 4000 to 6000 P/E cycles.
//!
//! Paper: the reduction grows from 21 % at 4000 P/E to 33 % at 6000 P/E —
//! soft sensing gets more expensive as the device ages, so removing it
//! pays more.
//!
//! Run: `cargo run --release -p bench --bin exp_fig6b`

use bench::{run_matrix, scaled_suite};
use ssd::Scheme;

fn main() {
    println!("Figure 6(b) — FlexLevel response-time reduction vs LDPC-in-SSD by wear\n");
    let traces = scaled_suite(1);
    println!("{:>6} {:>22} {:>22}", "P/E", "mean reduction", "paper");
    let paper = [(4000u32, "21%"), (5000, "~27%"), (6000, "33%")];
    for (pe, paper_label) in paper {
        // All 7 traces × 2 schemes at this wear point run concurrently;
        // results are identical to the serial loop for any thread count.
        let matrix = run_matrix(&traces, &[Scheme::LdpcInSsd, Scheme::FlexLevel], pe, 0);
        let mut total = 0.0;
        for row in &matrix {
            let ldpc = row[0].mean_response().as_f64();
            let flex = row[1].mean_response().as_f64();
            total += 1.0 - flex / ldpc;
        }
        let mean = total / traces.len() as f64;
        println!("{:>6} {:>21.1}% {:>22}", pe, mean * 100.0, paper_label);
    }
}
