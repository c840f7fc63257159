//! Network-interface bindings between a protocol stack and the kernel.
//!
//! Two transmit disciplines exist (§4.3 `ether_output`): user tasks
//! (the server and application libraries) trap into the kernel and the
//! frame is copied from user space into a wired kernel buffer before
//! the device copy; the in-kernel stack copies straight from its wired
//! mbufs to the device.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use psd_kernel::{Kernel, KernelHandle, PacketSink};
use psd_netstack::{NetIf, StackHandle};
use psd_sim::{Charge, CostModel, Domain, Layer, Medium, Op, Sim};
use psd_wire::EtherAddr;

/// Transmit path for user-space stacks (server, application library):
/// the kernel's send trap, [`Kernel::user_send`].
///
/// The MAC address is cached at construction so that `mac()` needs no
/// kernel borrow.
pub struct UserNetIf {
    kernel: KernelHandle,
    mac: EtherAddr,
    /// Announced size of the open transmit batch window (0 = no window):
    /// one trap covers up to this many back-to-back frames.
    batch_hint: Cell<usize>,
    /// Frames remaining in the window that ride the trap the window's
    /// first frame paid.
    batch_free: Cell<usize>,
}

impl UserNetIf {
    /// Binds to the host kernel.
    pub fn new(kernel: KernelHandle) -> Rc<UserNetIf> {
        let mac = kernel.borrow().mac();
        Rc::new(UserNetIf {
            kernel,
            mac,
            batch_hint: Cell::new(0),
            batch_free: Cell::new(0),
        })
    }
}

impl NetIf for UserNetIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        // Batched doorbell: within an announced window only the first
        // frame traps; the rest are appended to the already-mapped
        // transmit ring.
        let free = self.batch_free.get();
        if free > 0 {
            self.batch_free.set(free - 1);
        } else {
            let hint = self.batch_hint.get();
            if hint > 1 {
                self.batch_free.set(hint - 1);
            }
        }
        Kernel::user_send(&self.kernel, sim, charge, frame, free == 0);
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

/// Transmit path for the in-kernel stack: its mbufs are already wired,
/// so only the device copy is paid. It runs inside the kernel's receive
/// path, where the kernel is borrowed, so it prices the copy from the
/// host's cost model held here rather than through the kernel.
pub struct KernelNetIf {
    kernel: KernelHandle,
    mac: EtherAddr,
    costs: CostModel,
}

impl KernelNetIf {
    /// Binds to the host kernel.
    pub fn new(kernel: KernelHandle) -> Rc<KernelNetIf> {
        let (mac, costs) = {
            let k = kernel.borrow();
            (k.mac(), k.costs().clone())
        };
        Rc::new(KernelNetIf { kernel, mac, costs })
    }
}

impl NetIf for KernelNetIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        let copy = Op::BodyCopy(Medium::DeviceWrite, frame.len());
        charge.op(&self.costs, copy, Domain::Kernel, Layer::EtherOutput);
        Kernel::enqueue_tx(&self.kernel, sim, charge.at(), frame, false);
    }
}

/// Builds a kernel [`PacketSink`] that feeds delivered frames into a
/// stack: opens a CPU charge at delivery time, runs `input_frame`, and
/// (for SHM endpoints) reports the network thread's busy window back to
/// the kernel for wakeup amortization. The sink is the frame's last
/// owner: once `input_frame` has copied what it keeps, the buffer goes
/// back to the frame free list the output routines draw from.
pub(crate) fn stack_sink(stack: &StackHandle) -> PacketSink {
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

/// As `stack_sink`, additionally extending the kernel's per-endpoint
/// busy window so packet trains amortize wakeups (library SHM paths).
pub fn stack_sink_with_busy_report(
    stack: &StackHandle,
    kernel: &KernelHandle,
    endpoint: Rc<Cell<Option<psd_kernel::EndpointId>>>,
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
    use psd_sim::{Cpu, SimTime};

    #[test]
    fn both_netifs_reach_the_wire_through_the_kernel() {
        let mut sim = Sim::new(1);
        let ether = Ethernet::ten_megabit(&mut sim);
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let costs = CostModel::decstation_5000_200();
        let kernel = Kernel::new(costs, cpu.clone(), EtherAddr::local(9));
        Kernel::connect(&kernel, &ether);
        let user = UserNetIf::new(kernel.clone());
        assert_eq!(user.mac(), EtherAddr::local(9));
        let netifs: [Rc<dyn NetIf>; 2] = [user, KernelNetIf::new(kernel.clone())];
        let mut charge = cpu.borrow_mut().begin(SimTime::ZERO);
        for nif in &netifs {
            nif.transmit(&mut sim, &mut charge, vec![0u8; 64]);
        }
        cpu.borrow_mut().finish(charge);
        sim.run_to_idle();
        let stats = kernel.borrow().stats();
        assert_eq!((stats.tx_user, stats.tx_kernel), (1, 1));
        assert_eq!(ether.borrow().stats().tx_frames, 2);
    }
}
