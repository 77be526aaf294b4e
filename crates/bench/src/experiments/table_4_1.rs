//! Table 4-1: the network penalty on the 3 Mb Ethernet.

use v_kernel::CpuSpeed;
use v_workloads::penalty::measure_penalty;

use crate::paper;
use crate::report::Comparison;

use super::pair_3mb;

/// Measures the network penalty for the paper's datagram sizes on both
/// processor grades, by interrupt-level raw-datagram ping-pong, `rounds`
/// exchanges per row. The full run is 300; the `--smoke` CI job runs a
/// handful to exercise the pipeline cheaply (timings then carry
/// sub-round noise, so only the full count is comparable to the paper).
pub fn network_penalty_with_rounds(rounds: u64) -> Comparison {
    let mut c = Comparison::new(
        "Table 4-1",
        "3 Mb Ethernet network penalty (interrupt-level ping-pong, /2)",
    );
    for (bytes, paper8, paper10) in paper::TABLE_4_1 {
        let mut cl = pair_3mb(CpuSpeed::Mc68000At8MHz);
        let (ms8, st) = measure_penalty(&mut cl, bytes, rounds);
        assert_eq!(st.borrow().integrity_errors, 0);
        c.push(format!("{bytes} bytes, 8 MHz"), paper8, ms8, "ms");

        let mut cl = pair_3mb(CpuSpeed::Mc68000At10MHz);
        let (ms10, _) = measure_penalty(&mut cl, bytes, rounds);
        c.push(format!("{bytes} bytes, 10 MHz"), paper10, ms10, "ms");
    }
    c.note("paper fit 8 MHz: P(n) = 0.0064 n + 0.390; 10 MHz: 0.0054 n + 0.251");
    c.note("measured by the same procedure as the paper: n bytes there and back, total/2");
    c
}
