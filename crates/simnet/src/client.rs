//! External clients' inboxes, where replies wait for the harness's poll.

use bytes::Bytes;
use std::collections::VecDeque;

/// Handle to the responses of one client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientHandle(pub(crate) u64);

/// The client inboxes, a slab indexed by the densely issued client id.
///
/// Only the issued prefix `slots[..issued]` is state. The slots past it are
/// warm spares kept by [`ClientInboxes::copy_from`] for reuse, invisible as
/// on a fresh simulator: a reply to an id not yet issued is dropped, and
/// polling one finds nothing.
#[derive(Debug, Default)]
pub(crate) struct ClientInboxes {
    slots: Vec<VecDeque<Bytes>>,
    issued: usize,
}

impl ClientInboxes {
    /// Issues the next client id, with an empty inbox.
    pub(crate) fn issue(&mut self) -> ClientHandle {
        if self.issued == self.slots.len() {
            self.slots.push(VecDeque::new());
        }
        self.issued += 1;
        ClientHandle(self.issued as u64 - 1)
    }

    /// The inbox of client `id`, if that id was issued.
    #[inline]
    fn inbox(&mut self, id: u64) -> Option<&mut VecDeque<Bytes>> {
        self.slots[..self.issued].get_mut(id as usize)
    }

    /// Queues a reply for client `id`. A reply to an id never issued has no
    /// reader and is dropped.
    #[inline]
    pub(crate) fn deliver(&mut self, id: u64, payload: Bytes) {
        if let Some(inbox) = self.inbox(id) {
            inbox.push_back(payload);
        }
    }

    /// Pops the oldest reply queued for `handle`.
    #[inline]
    pub(crate) fn poll(&mut self, handle: ClientHandle) -> Option<Bytes> {
        self.inbox(handle.0)?.pop_front()
    }

    /// Makes these inboxes a copy of `src`'s issued prefix, reusing slots;
    /// the slots past it become empty spares.
    pub(crate) fn copy_from(&mut self, src: &ClientInboxes) {
        let ClientInboxes { slots, issued } = src;
        if self.slots.len() < *issued {
            self.slots.resize_with(*issued, VecDeque::new);
        }
        let (live, spare) = self.slots.split_at_mut(*issued);
        for (dst, src) in live.iter_mut().zip(slots) {
            dst.clone_from(src);
        }
        spare.iter_mut().for_each(VecDeque::clear);
        self.issued = *issued;
    }
}
