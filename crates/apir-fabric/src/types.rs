//! Shared token and message types of the fabric.

use apir_core::{IndexTuple, MAX_FIELDS};
use apir_util::snap::{self, Snap};
use apir_util::{snap_fields, Json};

/// A task token as it sits in a task queue: well-order index, unique
/// sequence number (FIFO tie-break among for-all siblings), and data
/// fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TaskToken {
    /// Well-order index.
    pub index: IndexTuple,
    /// Globally unique activation sequence number.
    pub seq: u64,
    /// Data fields (fixed width).
    pub fields: [u64; MAX_FIELDS],
}
snap_fields!(TaskToken {
    index => "i",
    seq => "s",
    fields => "f",
});

/// A task context flowing through a pipeline: the token plus the SSA
/// values computed so far (the pipeline registers carrying live values).
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    /// Well-order index.
    pub index: IndexTuple,
    /// Activation sequence number.
    pub seq: u64,
    /// Data fields.
    pub fields: [u64; MAX_FIELDS],
    /// One slot per body op. The body width is the pipeline's structure,
    /// so the pipeline checks a loaded context against it.
    pub vals: Vec<u64>,
}
snap_fields!(Ctx {
    index => "i",
    seq => "s",
    fields => "f",
    vals => "v",
});

impl Ctx {
    /// Builds a fresh context for a popped token.
    pub fn from_token(t: TaskToken, body_len: usize) -> Self {
        Ctx {
            index: t.index,
            seq: t.seq,
            fields: t.fields,
            vals: vec![0u64; body_len],
        }
    }
}

/// Write behaviour at the memory commit port (resolved [`apir_core::op::StoreKind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// Unconditional; result word 1.
    Plain,
    /// Store-min; result word = won flag.
    Min,
    /// Compare-and-swap against the operand; result word = won flag.
    Cas(u64),
    /// Fetch-and-add; result word = new value.
    Add,
}

/// A memory request from a pipeline port.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemReq {
    /// Response routing: which station the answer goes to.
    pub port: u32,
    /// Request tag matched by the issuing station.
    pub tag: u64,
    /// Target region.
    pub region: apir_core::RegionId,
    /// Word offset within the region.
    pub offset: u64,
    /// `None` for a read; `Some(kind, value)` for a write.
    pub write: Option<(WriteKind, u64)>,
}

/// A request snapshots as `{p, t, r, o, w}`. The write member `w` is
/// `null` for a read, `[code, value]` for a write with codes 0=Plain,
/// 1=Min, 2=Add, and `[3, value, expected]` for a CAS. Region, offset and
/// port are checked against the fabric by the memory subsystem.
impl Snap for MemReq {
    fn save(&self) -> Json {
        let MemReq {
            port,
            tag,
            region,
            offset,
            write,
        } = self;
        let w = match *write {
            None => Json::Null,
            Some((WriteKind::Plain, v)) => [0, v].save(),
            Some((WriteKind::Min, v)) => [1, v].save(),
            Some((WriteKind::Add, v)) => [2, v].save(),
            Some((WriteKind::Cas(expected), v)) => [3, v, expected].save(),
        };
        Json::obj([
            ("p", port.save()),
            ("t", tag.save()),
            ("r", region.save()),
            ("o", offset.save()),
            ("w", w),
        ])
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        snap::load_key(&mut self.port, j, "p")?;
        snap::load_key(&mut self.tag, j, "t")?;
        snap::load_key(&mut self.region, j, "r")?;
        snap::load_key(&mut self.offset, j, "o")?;
        let mut w: Option<Vec<u64>> = None;
        snap::load_key(&mut w, j, "w")?;
        self.write = match w.as_deref() {
            None => None,
            Some(&[0, v]) => Some((WriteKind::Plain, v)),
            Some(&[1, v]) => Some((WriteKind::Min, v)),
            Some(&[2, v]) => Some((WriteKind::Add, v)),
            Some(&[3, v, expected]) => Some((WriteKind::Cas(expected), v)),
            Some(other) => return Err(format!(".w: {other:?} is not a write")),
        };
        snap::only(j, &["p", "t", "r", "o", "w"], &[])
    }
}

/// A broadcast event on the event bus.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventMsg {
    /// Label the event was emitted under.
    pub label: apir_core::spec::LabelId,
    /// Payload words.
    pub payload: [u64; MAX_FIELDS],
    /// Number of valid payload words.
    pub len: u8,
    /// Index of the emitting task.
    pub index: IndexTuple,
}

/// An event snapshots only its `len` valid payload words.
impl Snap for EventMsg {
    fn save(&self) -> Json {
        let EventMsg {
            label,
            payload,
            len,
            index,
        } = self;
        Json::obj([
            ("l", label.save()),
            ("n", len.save()),
            ("p", payload[..usize::from(*len)].save()),
            ("i", index.save()),
        ])
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        snap::load_key(&mut self.label, j, "l")?;
        snap::load_key(&mut self.len, j, "n")?;
        let mut words: Vec<u64> = Vec::new();
        snap::load_key(&mut words, j, "p")?;
        if words.len() != usize::from(self.len) || words.len() > MAX_FIELDS {
            return Err(format!(
                ".p: {} words, but `n` is {} (at most {MAX_FIELDS})",
                words.len(),
                self.len
            ));
        }
        self.payload = to_fields(&words);
        snap::load_key(&mut self.index, j, "i")?;
        snap::only(j, &["l", "n", "p", "i"], &[])
    }
}

impl EventMsg {
    /// The valid payload slice.
    pub fn payload(&self) -> &[u64] {
        &self.payload[..self.len as usize]
    }
}

/// Copies a variable-length slice into a fixed field array.
///
/// # Panics
///
/// Panics if `src` exceeds [`MAX_FIELDS`].
pub fn to_fields(src: &[u64]) -> [u64; MAX_FIELDS] {
    assert!(src.len() <= MAX_FIELDS, "too many fields");
    let mut f = [0u64; MAX_FIELDS];
    f[..src.len()].copy_from_slice(src);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::spec::LabelId;
    use apir_core::RegionId;

    #[test]
    fn every_write_kind_and_event_payload_round_trips() {
        for write in [
            None,
            Some((WriteKind::Plain, 1)),
            Some((WriteKind::Min, 17)),
            Some((WriteKind::Add, 2)),
            Some((WriteKind::Cas(8), 9)),
        ] {
            let r = MemReq {
                port: 3,
                tag: 77,
                region: RegionId(1),
                offset: 1024,
                write,
            };
            let mut back = MemReq::default();
            back.load(&r.save()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{r:?}"));
        }
        let e = EventMsg {
            label: LabelId(2),
            payload: to_fields(&[11, 22]),
            len: 2,
            index: IndexTuple::new(&[4]),
        };
        let mut back = EventMsg::default();
        back.load(&e.save()).unwrap();
        assert_eq!(back.payload(), e.payload());
        assert_eq!((back.label, back.index), (e.label, e.index));
        let mut long = e.save();
        let Json::Obj(m) = &mut long else {
            unreachable!("an event saves as an object")
        };
        m[1].1 = Json::U64(3);
        assert!(back.load(&long).is_err(), "`n` must match the payload");
    }

    #[test]
    fn ctx_from_token() {
        let t = TaskToken {
            index: IndexTuple::new(&[3]),
            seq: 7,
            fields: to_fields(&[1, 2]),
        };
        let c = Ctx::from_token(t, 5);
        assert_eq!(c.vals.len(), 5);
        assert_eq!(c.fields[1], 2);
        assert_eq!(c.seq, 7);
    }

    #[test]
    fn event_payload_slice() {
        let e = EventMsg {
            label: apir_core::spec::LabelId(0),
            payload: to_fields(&[9, 8]),
            len: 2,
            index: IndexTuple::ROOT,
        };
        assert_eq!(e.payload(), &[9, 8]);
    }

    #[test]
    #[should_panic(expected = "too many fields")]
    fn to_fields_checks_width() {
        to_fields(&[0; 9]);
    }
}
