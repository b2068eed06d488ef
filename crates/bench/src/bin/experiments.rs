//! The Table-1 harness binary: runs the experiments and prints each
//! table as markdown on stdout.
//!
//! ```text
//! cargo run --release -p lightnet-bench --bin experiments            # all
//! cargo run --release -p lightnet-bench --bin experiments -- e1 e5  # subset
//! cargo run --release -p lightnet-bench --bin experiments -- quick  # smaller sweeps
//! ```

use lightnet_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let want = |name: &str| {
        args.is_empty() || args.iter().all(|a| a == "quick") || args.iter().any(|a| a == name)
    };
    let seed = 20200803; // PODC 2020 started August 3rd

    if want("e1") {
        let sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256] };
        println!(
            "{}",
            markdown_table(
                "E1 — light spanners for general graphs (Theorem 2)",
                &run_e1(sizes, &[2, 3], seed)
            )
        );
        let rsizes: &[usize] = if quick {
            &[64, 128, 256]
        } else {
            &[64, 128, 256, 512]
        };
        println!(
            "{}",
            markdown_table(
                "E1b — spanner round scaling (k = 2)",
                &run_e1_rounds(rsizes, 2, seed)
            )
        );
    }
    if want("e2") {
        println!(
            "{}",
            markdown_table(
                "E2 — shallow-light trees vs the KRY95 optimum (Theorem 1)",
                &run_e2(160, &[0.25, 0.5, 1.0], seed)
            )
        );
        println!(
            "{}",
            markdown_table(
                "E2b — inverse regime via [BFN16] (Lemma 5): lightness 1+γ",
                &run_e2_inverse(160, &[0.25, 0.5, 0.75], seed)
            )
        );
        println!(
            "{}",
            markdown_table(
                "E2c — two-phase selection ablation",
                &run_slt_ablation(seed)
            )
        );
    }
    if want("e3") {
        let sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256] };
        println!(
            "{}",
            markdown_table(
                "E3 — nets (Theorem 3)",
                &run_e3(sizes, &[0.25, 0.5, 1.0], seed)
            )
        );
    }
    if want("e4") {
        let sizes: &[usize] = if quick { &[48, 96] } else { &[48, 96, 192] };
        println!(
            "{}",
            markdown_table(
                "E4 — light spanners for doubling graphs (Theorem 5)",
                &run_e4(sizes, &[0.5, 0.25], seed)
            )
        );
    }
    if want("e5") {
        let sizes: &[usize] = if quick {
            &[64, 256, 1024]
        } else {
            &[64, 128, 256, 512, 1024]
        };
        println!(
            "{}",
            markdown_table(
                "E5 — Euler tour of the MST (Lemma 2) round scaling",
                &run_e5(sizes, seed)
            )
        );
    }
    if want("e6") {
        println!(
            "{}",
            markdown_table(
                "E6 — MST-weight estimation from nets (Theorem 7, §8)",
                &run_e6(seed)
            )
        );
    }
}
