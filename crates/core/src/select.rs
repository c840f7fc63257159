//! The cooperative `select` (§3.2).
//!
//! "Because these descriptors may not all be managed by the
//! application … it is not possible to implement select entirely
//! within the application. Similarly … the call cannot be implemented
//! entirely within the operating system." The library therefore:
//!
//! 1. checks the application-managed descriptors itself;
//! 2. if none is ready, reports their status to the server
//!    (`proxy_status`) and issues one server-side `select` covering
//!    *all* watched sessions;
//! 3. when a local descriptor later becomes ready, the event router
//!    sends a `proxy_status`, "forcing any relevant outstanding selects
//!    to return";
//! 4. "in cases where all descriptors are managed by the application,
//!    the operating system is not involved" — the wait is entirely
//!    local.

use crate::{AppHandle, AppLib, Fd, FdState};
use psd_server::{OsServer, SessionId};
use psd_sim::{Sim, SimTime};

/// The result of a `select`.
#[derive(Debug, Default, Clone)]
pub struct SelectOutcome {
    /// Descriptors ready for reading.
    pub readable: Vec<Fd>,
    /// Descriptors ready for writing.
    pub writable: Vec<Fd>,
    /// True if the call returned because the timeout expired.
    pub timed_out: bool,
}

impl SelectOutcome {
    /// True if nothing became ready.
    pub(crate) fn is_empty(&self) -> bool {
        self.readable.is_empty() && self.writable.is_empty()
    }
}

/// Completion callback.
pub(crate) type SelectDone = Box<dyn FnOnce(&mut Sim, SelectOutcome)>;

pub(crate) struct LocalWaiter {
    read: Vec<Fd>,
    write: Vec<Fd>,
    done: Option<SelectDone>,
}

impl AppLib {
    /// `select(2)` over descriptors. Completion is asynchronous via
    /// `done`; an immediate-ready set completes at the current time.
    pub fn select(
        this: &AppHandle,
        sim: &mut Sim,
        read: Vec<Fd>,
        write: Vec<Fd>,
        timeout: Option<SimTime>,
        done: SelectDone,
    ) {
        // Phase 1: local check.
        let outcome = poll_sets(this, &read, &write);
        if !outcome.is_empty() {
            let at = sim.now();
            sim.at(at, move |sim| done(sim, outcome));
            return;
        }

        // Classify descriptors.
        let (has_remote, local_sessions, remote_sessions) = {
            let app = this.borrow();
            let mut has_remote = false;
            let mut local_sessions: Vec<(Fd, SessionId)> = Vec::new();
            let mut remote_sessions: Vec<(Fd, SessionId, bool, bool)> = Vec::new();
            for (fd, want_r, want_w) in read
                .iter()
                .map(|f| (*f, true, false))
                .chain(write.iter().map(|f| (*f, false, true)))
            {
                match app.fds.get(&fd).map(|e| &e.state) {
                    Some(FdState::Session(sid)) => {
                        has_remote = true;
                        remote_sessions.push((fd, *sid, want_r, want_w));
                    }
                    Some(FdState::Local {
                        session: Some(sid), ..
                    }) => local_sessions.push((fd, *sid)),
                    _ => {}
                }
            }
            (has_remote, local_sessions, remote_sessions)
        };

        if !has_remote {
            // Entirely application-managed: wait locally; the server is
            // not involved.
            this.borrow_mut().local_selects.push(LocalWaiter {
                read,
                write,
                done: Some(done),
            });
            let idx = this.borrow().local_selects.len() - 1;
            if let Some(t) = timeout {
                let weak = this.borrow().me.clone();
                sim.after(t, move |sim| {
                    let Some(app) = weak.upgrade() else { return };
                    let waiter = {
                        let mut a = app.borrow_mut();
                        if idx < a.local_selects.len() && a.local_selects[idx].done.is_some() {
                            Some(a.local_selects.remove(idx))
                        } else {
                            None
                        }
                    };
                    if let Some(w) = waiter {
                        let mut outcome = poll_sets(&app, &w.read, &w.write);
                        outcome.timed_out = outcome.is_empty();
                        if let Some(done) = w.done {
                            done(sim, outcome);
                        }
                    }
                });
            }
            return;
        }

        // Cooperative phase: mark local descriptors watched and report
        // their (not-ready) status, then select at the server across
        // all sessions.
        for (fd, _) in &local_sessions {
            this.borrow_mut().watched.insert(*fd);
        }
        for (fd, _) in &local_sessions {
            AppLib::report_status(this, sim, *fd);
        }
        let server = this
            .borrow()
            .server
            .clone()
            .expect("remote fds need server");
        let watch: Vec<(SessionId, bool, bool)> = remote_sessions
            .iter()
            .map(|(_, sid, r, w)| (*sid, *r, *w))
            .chain(
                local_sessions
                    .iter()
                    .map(|(fd, sid)| (*sid, read.contains(fd), write.contains(fd))),
            )
            .collect();
        let weak = this.borrow().me.clone();
        let read2 = read.clone();
        let write2 = write.clone();
        let wake = Box::new(move |sim: &mut Sim, _ready_sessions| {
            let Some(app) = weak.upgrade() else { return };
            for fd in &read2 {
                app.borrow_mut().watched.remove(fd);
            }
            for fd in &write2 {
                app.borrow_mut().watched.remove(fd);
            }
            let mut outcome = poll_sets(&app, &read2, &write2);
            outcome.timed_out = outcome.is_empty();
            done(sim, outcome);
        });
        AppLib::charged(this, sim, |sim, charge| {
            this.borrow_mut().stats.control_rpcs += 1;
            OsServer::select(&server, sim, charge, watch, timeout, wake);
        });
    }
}

fn poll_sets(this: &AppHandle, read: &[Fd], write: &[Fd]) -> SelectOutcome {
    let app = this.borrow();
    let mut outcome = SelectOutcome::default();
    for fd in read {
        if app.poll(*fd).0 {
            outcome.readable.push(*fd);
        }
    }
    for fd in write {
        if app.poll(*fd).1 {
            outcome.writable.push(*fd);
        }
    }
    outcome
}

/// Re-checks local select waiters after any event; fires those that
/// became ready.
pub(crate) fn rescan_local(this: &AppHandle, sim: &mut Sim) {
    loop {
        let fired = {
            let mut app = this.borrow_mut();
            let mut hit = None;
            for (i, w) in app.local_selects.iter().enumerate() {
                if w.done.is_none() {
                    continue;
                }
                // Peek readiness without holding the borrow past the
                // decision.
                let ready = {
                    let mut any = false;
                    for fd in &w.read {
                        if app.poll(*fd).0 {
                            any = true;
                            break;
                        }
                    }
                    if !any {
                        for fd in &w.write {
                            if app.poll(*fd).1 {
                                any = true;
                                break;
                            }
                        }
                    }
                    any
                };
                if ready {
                    hit = Some(i);
                    break;
                }
            }
            hit.map(|i| app.local_selects.remove(i))
        };
        match fired {
            Some(w) => {
                let outcome = poll_sets(this, &w.read, &w.write);
                if let Some(done) = w.done {
                    let at = sim.now();
                    sim.at(at, move |sim| done(sim, outcome));
                }
            }
            None => return,
        }
    }
}
