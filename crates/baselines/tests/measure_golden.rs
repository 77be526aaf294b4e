//! Comparator golden: what the four paper-comparison measurements —
//! the Table 4-1 network penalty, the §3 process-level relay, the §6.1
//! WFS-style page protocol and the §6.2 streaming read — return and do to
//! the simulated system must not move while their programs are reshaped.
//!
//! Each raw measurement runs on a fresh two-host 3 Mb cluster and prints
//! one line: the returned milliseconds as `f64` bits, every `RunReport`
//! field (the sums exact), the final clock, the dispatched event count,
//! the queue's `SimStats`, every host's charged processor time, and
//! digests of every host's `KernelStats` and of the medium's
//! `MediumStats` (through their `Debug` text). The relay measurement
//! builds its own cluster, so its line is the returned milliseconds'
//! bits. The expected lines were recorded at the commit before the fold
//! (`72f6ca0`).

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::measure::{Probe, RunReport};

// --- spellings: the only part that differs from the recorded parent ---------
//
// At the parent the WFS measurement also took `reads: bool` and a page
// size; it was called as `measure_wfs(cl, true, 512, pages)`, the only
// form any table used. Everything below this section is byte-for-byte
// what recorded the values.

fn penalty(cl: &mut Cluster, size: usize, rounds: u64) -> (f64, Probe<RunReport>) {
    v_workloads::penalty::measure_penalty(cl, size, rounds)
}

fn relayed(speed: CpuSpeed, n: u64) -> f64 {
    v_baselines::relay::measure_relayed_exchange(speed, n)
}

fn wfs(cl: &mut Cluster, pages: u64) -> (f64, Probe<RunReport>) {
    v_baselines::wfs::measure_wfs(cl, pages)
}

fn streaming(
    cl: &mut Cluster,
    pages: u16,
    disk: SimDuration,
    think: SimDuration,
) -> (f64, Probe<RunReport>) {
    v_baselines::streaming::measure_streaming(cl, pages, disk, think)
}

// --- scenarios ---------------------------------------------------------------

fn pair(speed: CpuSpeed) -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed))
}

struct Digest(u64);

impl Digest {
    fn of(texts: impl IntoIterator<Item = String>) -> u64 {
        let mut d = Digest(0xCBF2_9CE4_8422_2325);
        for s in texts {
            for b in s.bytes() {
                d.0 = (d.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        d.0
    }
}

/// One line of what a raw measurement returned and left behind.
fn observe(cl: &Cluster, ms: f64, report: &Probe<RunReport>) -> String {
    let r = report.borrow();
    let hosts = 0..cl.num_hosts();
    let busy: Vec<u64> = hosts
        .clone()
        .map(|h| cl.cpu_busy(HostId(h)).as_nanos())
        .collect();
    let kstats = Digest::of(hosts.map(|h| format!("{:?}", cl.kernel_stats(HostId(h)))));
    let medium = Digest::of([format!("{:?}", cl.medium_stats())]);
    format!(
        "ms={:016X} run=({:?},{:?},{},{},{},{},{},{},{:?},{:?}) now={} ev={} sim={:?} busy={busy:?} kstats={kstats:016X} medium={medium:016X}",
        ms.to_bits(),
        r.started.map(|t| t.as_nanos()),
        r.finished.map(|t| t.as_nanos()),
        r.iterations,
        r.failures,
        r.integrity_errors,
        r.deducted.as_nanos(),
        r.pages,
        r.loads,
        r.page_ms_total,
        r.load_ms_total,
        cl.now().as_nanos(),
        cl.events_dispatched(),
        cl.sim_stats(),
    )
}

fn observed() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for speed in [CpuSpeed::Mc68000At8MHz, CpuSpeed::Mc68000At10MHz] {
        for size in [64, 512, 1024] {
            let mut cl = pair(speed);
            let (ms, report) = penalty(&mut cl, size, 50);
            out.push((format!("4-1 {speed:?} {size}"), observe(&cl, ms, &report)));
        }
    }
    for speed in [CpuSpeed::Mc68000At8MHz, CpuSpeed::Mc68000At10MHz] {
        let ms = relayed(speed, 50);
        out.push((
            format!("relay {speed:?}"),
            format!("ms={:016X}", ms.to_bits()),
        ));
    }
    let mut cl = pair(CpuSpeed::Mc68000At10MHz);
    let (ms, report) = wfs(&mut cl, 100);
    out.push(("wfs 100".to_string(), observe(&cl, ms, &report)));
    for (disk, think) in [(10, 0), (20, 0), (10, 20)] {
        let mut cl = pair(CpuSpeed::Mc68000At10MHz);
        let (ms, report) = streaming(
            &mut cl,
            40,
            SimDuration::from_millis(disk),
            SimDuration::from_millis(think),
        );
        out.push((
            format!("streaming disk={disk} think={think}"),
            observe(&cl, ms, &report),
        ));
    }
    out
}

/// `(case, line)`, recorded at the parent.
const EXPECTED: [(&str, &str); 12] = [
    (
        "4-1 Mc68000At8MHz 64",
        "ms=3FE9A69DF97AAAC1 run=(Some(0),Some(80158900),50,0,0,0,0,0,0.0,0.0) now=79860180 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[29872000, 29872000] kstats=B7260A7271865399 medium=C07CD01D4F5E8C2F",
    ),
    (
        "4-1 Mc68000At8MHz 512",
        "ms=400D7634549B62C8 run=(Some(0),Some(368271700),50,0,0,0,0,0,0.0,0.0) now=367141940 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[112976000, 112976000] kstats=B7260A7271865399 medium=AD382D62433D0722",
    ),
    (
        "4-1 Mc68000At8MHz 1024",
        "ms=401BE6D82BA5A038 run=(Some(0),Some(697543400),50,0,0,0,0,0,0.0,0.0) now=695463880 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[207952000, 207952000] kstats=B7260A7271865399 medium=D2AB757734918741",
    ),
    (
        "4-1 Mc68000At10MHz 64",
        "ms=3FE4E44D87724FA9 run=(Some(0),Some(65286900),50,0,0,0,0,0,0.0,0.0) now=65062540 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[22436000, 22436000] kstats=B7260A7271865399 medium=C07CD01D4F5E8C2F",
    ),
    (
        "4-1 Mc68000At10MHz 512",
        "ms=40089498C3B0C458 run=(Some(0),Some(307255700),50,0,0,0,0,0,0.0,0.0) now=306431020 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[82468000, 82468000] kstats=B7260A7271865399 medium=AD382D62433D0722",
    ),
    (
        "4-1 Mc68000At10MHz 1024",
        "ms=40175A0620AB7132 run=(Some(0),Some(583791400),50,0,0,0,0,0,0.0,0.0) now=582280640 ev=101 sim=SimStats { scheduled: 101, popped: 101, pending: 0 } busy=[151076000, 151076000] kstats=B7260A7271865399 medium=D2AB757734918741",
    ),
    (
        "relay Mc68000At8MHz",
        "ms=402870BB2BBA98EE",
    ),
    (
        "relay Mc68000At10MHz",
        "ms=4022F62F166E008F",
    ),
    (
        "wfs 100",
        "ms=400E799DCB5781C8 run=(Some(0),Some(380938300),100,0,0,0,0,0,0.0,0.0) now=380097540 ev=201 sim=SimStats { scheduled: 201, popped: 201, pending: 0 } busy=[99544000, 129544000] kstats=B7260A7271865399 medium=68AA38B2C94CF85F",
    ),
    (
        "streaming disk=10 think=0",
        "ms=4025D1DAEA9CC16C run=(Some(0),Some(436394933),40,0,0,0,0,0,0.0,0.0) now=436596021 ev=122 sim=SimStats { scheduled: 122, popped: 122, pending: 0 } busy=[53464520, 39538120] kstats=B7260A7271865399 medium=632002040468A34B",
    ),
    (
        "streaming disk=20 think=0",
        "ms=4034E8ED754E60B6 run=(Some(0),Some(836394933),40,0,0,0,0,0,0.0,0.0) now=836596021 ev=122 sim=SimStats { scheduled: 122, popped: 122, pending: 0 } busy=[53464520, 39538120] kstats=B7260A7271865399 medium=632002040468A34B",
    ),
    (
        "streaming disk=10 think=20",
        "ms=4034D4952E656E19 run=(Some(0),Some(833216053),40,0,0,0,0,0,0.0,0.0) now=833417141 ev=162 sim=SimStats { scheduled: 162, popped: 162, pending: 0 } busy=[53464520, 39538120] kstats=B7260A7271865399 medium=8E83C8070D77C565",
    ),
];

#[test]
fn comparator_measurements_match_the_recorded_parent() {
    let observed = observed();
    assert_eq!(observed.len(), EXPECTED.len());
    let moved: Vec<String> = observed
        .iter()
        .zip(EXPECTED)
        .filter(|((name, line), (want_name, want))| name != want_name || line != want)
        .map(|((name, line), (_, want))| format!("{name}:\n  got  {line}\n  want {want}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} cases moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
