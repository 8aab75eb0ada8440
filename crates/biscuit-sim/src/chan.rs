//! The kernel's hand-off channel: a queue, a lock and two condition
//! variables.
//!
//! Not `std::sync::mpsc`: its `Receiver` is not `Sync`, and the kernel's
//! receivers live inside `Ctx` and `Simulation`, which are shared by
//! reference and behind `Arc`s. Wrapping an `mpsc::Receiver` in a lock to
//! make it shareable was measured at +40 % `wall_ms` on the event-bound
//! `qos_soak` workload (DESIGN.md §5), so the channel is written out here,
//! sized to what the kernel uses: many senders, one receiver, capacity one
//! or none.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// `None` for an unbounded channel.
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The message could not be sent because the receiver is gone.
#[derive(Debug)]
pub(crate) struct SendError;

/// The channel is empty and every sender is gone.
#[derive(Debug)]
pub(crate) struct RecvError;

pub(crate) struct Sender<T>(Arc<Chan<T>>);
pub(crate) struct Receiver<T>(Arc<Chan<T>>);

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

/// A channel holding at most `cap` messages (`cap >= 1`: the kernel has no
/// rendezvous channels).
pub(crate) fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "zero-capacity channels are not modelled");
    channel(Some(cap))
}

pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

impl<T> Sender<T> {
    /// Blocks while a bounded channel is full.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError> {
        let mut st = self.0.state.lock();
        loop {
            if !st.receiver_alive {
                return Err(SendError);
            }
            if self.0.cap.is_none_or(|cap| st.queue.len() < cap) {
                break;
            }
            self.0.not_full.wait(&mut st);
        }
        st.queue.push_back(msg);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender is gone.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.state.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                if self.0.cap.is_some() {
                    self.0.not_full.notify_one();
                }
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut st);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.receiver_alive = false;
        drop(st);
        self.0.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_send_order_and_recv_ends_with_the_last_sender() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        tx2.send(3).unwrap();
        drop(tx2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(()).is_err());
    }

    #[test]
    fn a_full_bounded_channel_blocks_the_sender_until_a_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2).is_ok());
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(sender.join().expect("sender thread"));
    }

    #[test]
    fn a_blocked_sender_wakes_with_an_error_when_the_receiver_drops() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2).is_err());
        // Whether the sender is already waiting or not yet, it must see
        // the hang-up: the flag is set under the lock it waits on.
        drop(rx);
        assert!(sender.join().expect("sender thread"));
    }
}
