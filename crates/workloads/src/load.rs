//! Program loading: large reads through `MoveTo` (Table 6-3, §8).
//!
//! "The second read, generally consisting of several tens of disk pages,
//! uses MoveTo to transfer the data ... our current VAX file server
//! breaks large read and write operations into MoveTo and MoveFrom
//! operations of at most 4 kilobytes at a time." The *transfer unit* is
//! the bytes moved per `MoveTo`; Table 6-3 sweeps it from 1 KB to 64 KB
//! over a 64 KB read.

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};

use crate::measure::{Probe, RunReport};

/// Image buffer address in both spaces.
pub const IMAGE_ADDR: u32 = 0x10000;

/// Serves whole-image reads, chunked into `MoveTo`s of one transfer unit.
pub struct LoadServer {
    /// Image size in bytes.
    pub image: u32,
    /// Bytes per `MoveTo`.
    pub transfer_unit: u32,
    /// Image fill pattern.
    pub pattern: u8,
    /// Failure records.
    pub report: Probe<RunReport>,
    /// In-progress read: (client, client buffer, bytes pushed so far).
    current: Option<(Pid, u32, u32)>,
}

impl LoadServer {
    /// Creates a load server.
    pub fn new(
        image: u32,
        transfer_unit: u32,
        pattern: u8,
        report: Probe<RunReport>,
    ) -> LoadServer {
        LoadServer {
            image,
            transfer_unit,
            pattern,
            report,
            current: None,
        }
    }

    fn push_next(&mut self, api: &mut Api<'_>) {
        let (client, buf, pushed) = self.current.expect("read in progress");
        let n = self.transfer_unit.min(self.image - pushed);
        api.move_to(client, buf + pushed, IMAGE_ADDR + pushed, n);
    }
}

impl Program for LoadServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(IMAGE_ADDR, self.image as usize, self.pattern)
                    .expect("image fits");
                api.receive();
            }
            Outcome::Receive { from, msg } => {
                let buf = msg.get_u32(12);
                self.current = Some((from, buf, 0));
                self.push_next(api);
            }
            Outcome::Move(Ok(n)) => {
                let (client, buf, pushed) = self.current.expect("read in progress");
                let pushed = pushed + n;
                if pushed < self.image {
                    self.current = Some((client, buf, pushed));
                    self.push_next(api);
                } else {
                    self.current = None;
                    let mut reply = Message::empty();
                    reply.set_u32(8, pushed);
                    let _ = api.reply(reply, client);
                    api.receive();
                }
            }
            Outcome::Move(Err(_)) => {
                self.report.borrow_mut().failures += 1;
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Requests whole-image reads `n` times.
pub struct LoadClient {
    /// The server.
    pub server: Pid,
    /// Image size in bytes.
    pub image: u32,
    /// Reads to perform.
    pub n: u64,
    /// Expected pattern (integrity check after the first read).
    pub pattern: u8,
    /// Where results accumulate.
    pub report: Probe<RunReport>,
    done: u64,
}

impl LoadClient {
    /// Creates a load client.
    pub fn new(
        server: Pid,
        image: u32,
        n: u64,
        pattern: u8,
        report: Probe<RunReport>,
    ) -> LoadClient {
        LoadClient {
            server,
            image,
            n,
            pattern,
            report,
            done: 0,
        }
    }

    fn request(&self, api: &mut Api<'_>) {
        let mut m = Message::empty();
        m.set_u32(8, self.image);
        m.set_u32(12, IMAGE_ADDR);
        m.set_segment(IMAGE_ADDR, self.image, Access::Write);
        api.send(m, self.server);
    }
}

impl Program for LoadClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                self.report.borrow_mut().started = Some(api.now());
                self.request(api);
            }
            Outcome::Send(Ok(reply)) => {
                if reply.get_u32(8) != self.image {
                    self.report.borrow_mut().integrity_errors += 1;
                }
                if self.done == 0 {
                    let intact = api.mem_is_filled(IMAGE_ADDR, self.image as usize, self.pattern);
                    if !intact.expect("fits") {
                        self.report.borrow_mut().integrity_errors += 1;
                    }
                }
                self.done += 1;
                self.report.borrow_mut().iterations += 1;
                if self.done < self.n {
                    self.request(api);
                } else {
                    self.report.borrow_mut().finished = Some(api.now());
                    api.exit();
                }
            }
            Outcome::Send(Err(_)) => {
                let mut r = self.report.borrow_mut();
                r.failures += 1;
                r.finished = Some(api.now());
                drop(r);
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::probe;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    fn run_load(remote: bool, unit: u32) -> (f64, RunReport) {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let server = cl.spawn(
            HostId(if remote { 1 } else { 0 }),
            "loadserver",
            Box::new(LoadServer::new(65536, unit, 0x42, rep.clone())),
        );
        cl.spawn(
            HostId(0),
            "loadclient",
            Box::new(LoadClient::new(server, 65536, 3, 0x42, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        (r.per_op_ms(), r)
    }

    #[test]
    fn local_load_64k_units() {
        let (ms, r) = run_load(false, 65536);
        assert!(r.clean(), "{r:?}");
        // Paper: 59.7 ms.
        assert!((50.0..70.0).contains(&ms), "local 64K load = {ms:.1}");
    }

    #[test]
    fn remote_load_64k_units_delivers_image() {
        let (ms, r) = run_load(true, 65536);
        assert!(r.clean(), "{r:?}");
        // Paper: 335.4 ms.
        assert!((280.0..400.0).contains(&ms), "remote 64K load = {ms:.1}");
    }

    #[test]
    fn smaller_transfer_units_cost_more() {
        let (u1, _) = run_load(true, 1024);
        let (u16, _) = run_load(true, 16384);
        let (u64k, _) = run_load(true, 65536);
        assert!(u1 > u16 && u16 > u64k, "{u1:.0} > {u16:.0} > {u64k:.0}");
    }
}
