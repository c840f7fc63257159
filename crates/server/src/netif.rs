//! Network-interface bindings between a protocol stack and the kernel.
//!
//! Two transmit disciplines exist (§4.3 `ether_output`): user tasks
//! (the server and application libraries) trap into the kernel and the
//! frame is copied from user space into a wired kernel buffer before
//! the device copy; the in-kernel stack copies straight from its wired
//! mbufs to the device.

use std::cell::RefCell;
use std::rc::Rc;

use psd_kernel::{Kernel, KernelHandle, PacketSink};
use psd_netstack::{NetIf, StackHandle};
use psd_sim::{Charge, Sim};
use psd_wire::EtherAddr;

/// Transmit path for user-space stacks (server, application library).
///
/// The MAC address and unit costs are cached at construction so that
/// neither `mac()` nor `transmit()` needs to borrow the kernel
/// synchronously — `transmit` charges locally and schedules the
/// kernel-side handoff, which keeps the in-kernel receive path (where
/// the kernel is already borrowed) reentrancy-safe.
pub struct UserNetIf {
    kernel: KernelHandle,
    mac: EtherAddr,
    trap: u64,
    kcopy_byte: u64,
    dev_write_byte: u64,
    /// Announced size of the open transmit batch window (0 = no window):
    /// one trap covers up to this many back-to-back frames.
    batch_hint: std::cell::Cell<usize>,
    /// Frames remaining in the window that ride the trap the window's
    /// first frame paid.
    batch_free: std::cell::Cell<usize>,
}

impl UserNetIf {
    /// Binds to the host kernel.
    pub fn new(kernel: KernelHandle) -> Rc<UserNetIf> {
        let (mac, trap, kcopy_byte, dev_write_byte) = {
            let k = kernel.borrow();
            let c = k.costs();
            (k.mac(), c.trap, c.kcopy_byte, c.dev_write_byte)
        };
        Rc::new(UserNetIf {
            kernel,
            mac,
            trap,
            kcopy_byte,
            dev_write_byte,
            batch_hint: std::cell::Cell::new(0),
            batch_free: std::cell::Cell::new(0),
        })
    }
}

impl NetIf for UserNetIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        use psd_sim::{Domain, Layer, OpKind, SimTime};
        // Batched doorbell: within an announced window only the first
        // frame traps; the rest are appended to the already-mapped
        // transmit ring. Both copies (user → wired buffer → device) are
        // physical and always paid.
        let free = self.batch_free.get();
        if free > 0 {
            self.batch_free.set(free - 1);
        } else {
            charge.crossing_in(
                Domain::Kernel,
                Layer::EtherOutput,
                SimTime::from_nanos(self.trap),
            );
            let hint = self.batch_hint.get();
            if hint > 1 {
                self.batch_free.set(hint - 1);
            }
        }
        charge.add_per_byte(Layer::EtherOutput, self.kcopy_byte, frame.len());
        charge.note(OpKind::PacketBodyCopy, Domain::Kernel, Layer::EtherOutput);
        charge.add_per_byte(Layer::EtherOutput, self.dev_write_byte, frame.len());
        charge.note(OpKind::PacketBodyCopy, Domain::Kernel, Layer::EtherOutput);
        Kernel::enqueue_tx(&self.kernel, sim, charge.at(), frame, true);
    }

    fn tx_batch_hint(&self, n: usize) {
        self.batch_hint.set(n);
        self.batch_free.set(0);
    }

    fn tx_batch_end(&self) {
        self.batch_hint.set(0);
        self.batch_free.set(0);
    }
}

/// Transmit path for the in-kernel stack.
pub struct KernelNetIf {
    kernel: KernelHandle,
    mac: EtherAddr,
    dev_write_byte: u64,
}

impl KernelNetIf {
    /// Binds to the host kernel.
    pub fn new(kernel: KernelHandle) -> Rc<KernelNetIf> {
        let (mac, dev_write_byte) = {
            let k = kernel.borrow();
            (k.mac(), k.costs().dev_write_byte)
        };
        Rc::new(KernelNetIf {
            kernel,
            mac,
            dev_write_byte,
        })
    }
}

impl NetIf for KernelNetIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        use psd_sim::{Domain, Layer, OpKind};
        charge.add_per_byte(Layer::EtherOutput, self.dev_write_byte, frame.len());
        charge.note(OpKind::PacketBodyCopy, Domain::Kernel, Layer::EtherOutput);
        Kernel::enqueue_tx(&self.kernel, sim, charge.at(), frame, false);
    }
}

/// Builds a kernel [`PacketSink`] that feeds delivered frames into a
/// stack: opens a CPU charge at delivery time, runs `input_frame`, and
/// (for SHM endpoints) reports the network thread's busy window back to
/// the kernel for wakeup amortization. The sink is the frame's last
/// owner: once `input_frame` has copied what it keeps, the buffer goes
/// back to the frame free list the output routines draw from.
pub fn stack_sink(stack: &StackHandle) -> PacketSink {
    let stack = stack.clone();
    Rc::new(RefCell::new(
        move |sim: &mut Sim, t: psd_sim::SimTime, frame: Vec<u8>| {
            let cpu = stack.borrow().cpu();
            let mut charge = cpu.borrow_mut().begin(t);
            stack.borrow_mut().input_frame(sim, &mut charge, &frame);
            psd_mbuf::give_frame(frame);
            cpu.borrow_mut().finish(charge);
        },
    ))
}

/// As [`stack_sink`], additionally extending the kernel's per-endpoint
/// busy window so packet trains amortize wakeups (library SHM paths).
pub fn stack_sink_with_busy_report(
    stack: &StackHandle,
    kernel: &KernelHandle,
    endpoint: Rc<std::cell::Cell<Option<psd_kernel::EndpointId>>>,
) -> PacketSink {
    let stack = stack.clone();
    let kernel = kernel.clone();
    Rc::new(RefCell::new(
        move |sim: &mut Sim, t: psd_sim::SimTime, frame: Vec<u8>| {
            let cpu = stack.borrow().cpu();
            let mut charge = cpu.borrow_mut().begin(t);
            stack.borrow_mut().input_frame(sim, &mut charge, &frame);
            psd_mbuf::give_frame(frame);
            let busy_until = charge.at();
            cpu.borrow_mut().finish(charge);
            if let Some(id) = endpoint.get() {
                psd_kernel::note_thread_busy(&kernel, id, busy_until);
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_netdev::Ethernet;
    use psd_sim::{CostModel, Cpu, SimTime};

    #[test]
    fn user_netif_reports_kernel_mac_and_transmits() {
        let mut sim = Sim::new(1);
        let ether = Ethernet::ten_megabit(&mut sim);
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let kernel = Kernel::new(
            CostModel::decstation_5000_200(),
            cpu.clone(),
            EtherAddr::local(9),
        );
        Kernel::connect(&kernel, &ether);
        let nif = UserNetIf::new(kernel.clone());
        assert_eq!(nif.mac(), EtherAddr::local(9));
        let mut charge = cpu.borrow_mut().begin(SimTime::ZERO);
        nif.transmit(&mut sim, &mut charge, vec![0u8; 64]);
        cpu.borrow_mut().finish(charge);
        sim.run_to_idle();
        assert_eq!(kernel.borrow().stats().tx_user, 1);
        assert_eq!(ether.borrow().stats().tx_frames, 1);
    }

    #[test]
    fn kernel_netif_uses_kernel_path() {
        let mut sim = Sim::new(1);
        let ether = Ethernet::ten_megabit(&mut sim);
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let kernel = Kernel::new(
            CostModel::decstation_5000_200(),
            cpu.clone(),
            EtherAddr::local(9),
        );
        Kernel::connect(&kernel, &ether);
        let nif = KernelNetIf::new(kernel.clone());
        let mut charge = cpu.borrow_mut().begin(SimTime::ZERO);
        nif.transmit(&mut sim, &mut charge, vec![0u8; 64]);
        cpu.borrow_mut().finish(charge);
        sim.run_to_idle();
        assert_eq!(kernel.borrow().stats().tx_kernel, 1);
    }
}
