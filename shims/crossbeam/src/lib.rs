//! Offline shim for `crossbeam`: the `channel` module surface the
//! workspace uses, backed by `std::sync::mpsc`.

pub mod channel {
    use std::sync::mpsc;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The sending half of a channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Send a value; fails only once the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|e| SendError(e.0))
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Iterator over values currently queued (non-blocking).
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.try_iter()
        }
    }

    /// A channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(rx.try_iter().next(), None);
        drop(rx);
        assert_eq!(tx.send(3), Err(SendError(3)));
    }
}
