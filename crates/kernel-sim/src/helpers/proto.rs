//! Helper function prototypes.
//!
//! The verifier validates every `call` against the prototype declared
//! here, exactly as `check_helper_call` does against `struct
//! bpf_func_proto`: each argument register must hold a value compatible
//! with the declared [`ArgType`], and the return register is retyped
//! according to [`RetType`].

use serde::{Deserialize, Serialize};

use crate::btf::BtfTypeId;
use crate::lockdep::LockId;
use crate::map::MapType;
use crate::progtype::ProgType;
use crate::tracepoint::Tracepoint;

/// Helper id namespace.
pub type HelperId = u32;

/// Well-known helper ids (matching Linux where the helper exists there).
pub mod ids {
    use super::HelperId;

    /// `bpf_map_lookup_elem`.
    pub const MAP_LOOKUP_ELEM: HelperId = 1;
    /// `bpf_map_update_elem`.
    pub const MAP_UPDATE_ELEM: HelperId = 2;
    /// `bpf_map_delete_elem`.
    pub const MAP_DELETE_ELEM: HelperId = 3;
    /// `bpf_ktime_get_ns`.
    pub const KTIME_GET_NS: HelperId = 5;
    /// `bpf_trace_printk`.
    pub const TRACE_PRINTK: HelperId = 6;
    /// `bpf_get_prandom_u32`.
    pub const GET_PRANDOM_U32: HelperId = 7;
    /// `bpf_get_smp_processor_id`.
    pub const GET_SMP_PROCESSOR_ID: HelperId = 8;
    /// `bpf_tail_call`.
    pub const TAIL_CALL: HelperId = 12;
    /// `bpf_get_current_pid_tgid`.
    pub const GET_CURRENT_PID_TGID: HelperId = 14;
    /// `bpf_get_current_comm`.
    pub const GET_CURRENT_COMM: HelperId = 16;
    /// `bpf_perf_event_output`.
    pub const PERF_EVENT_OUTPUT: HelperId = 25;
    /// `bpf_skb_load_bytes`.
    pub const SKB_LOAD_BYTES: HelperId = 26;
    /// `bpf_xdp_adjust_head`.
    pub const XDP_ADJUST_HEAD: HelperId = 44;
    /// `bpf_send_signal`.
    pub const SEND_SIGNAL: HelperId = 109;
    /// `bpf_probe_read_kernel`.
    pub const PROBE_READ_KERNEL: HelperId = 113;
    /// `bpf_jiffies64`.
    pub const JIFFIES64: HelperId = 118;
    /// `bpf_ringbuf_output`.
    pub const RINGBUF_OUTPUT: HelperId = 130;
    /// `bpf_ringbuf_reserve`.
    pub const RINGBUF_RESERVE: HelperId = 131;
    /// `bpf_ringbuf_submit`.
    pub const RINGBUF_SUBMIT: HelperId = 132;
    /// `bpf_ringbuf_discard`.
    pub const RINGBUF_DISCARD: HelperId = 133;
    /// `bpf_get_current_task_btf`.
    pub const GET_CURRENT_TASK_BTF: HelperId = 158;
    /// `bvf_queue_work` — simulated irq_work-queueing helper (bug #10).
    pub const QUEUE_WORK: HelperId = 200;
    /// `bvf_map_sum_values` — simulated hash-iteration helper standing in
    /// for the `for_each`/`get_next_key` iteration paths (bug #9).
    pub const MAP_SUM_VALUES: HelperId = 201;
}

/// Expected type of one helper argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgType {
    /// Any initialized value.
    Anything,
    /// A map pointer from `LD_IMM64 MAP_FD`, optionally restricted by type.
    ConstMapPtr(Option<MapType>),
    /// Pointer to memory holding a key of the map in argument 1.
    PtrToMapKey,
    /// Pointer to memory holding a value of the map in argument 1.
    PtrToMapValue,
    /// Pointer to initialized memory whose length is in the argument at
    /// `size_arg` (0-based).
    PtrToMem {
        /// Index of the size argument.
        size_arg: usize,
    },
    /// Pointer to writable (possibly uninitialized) memory whose length is
    /// in the argument at `size_arg`.
    PtrToUninitMem {
        /// Index of the size argument.
        size_arg: usize,
    },
    /// A size value; must have bounded, non-negative range.
    ConstSize {
        /// Whether zero is acceptable.
        allow_zero: bool,
    },
    /// The program's context pointer.
    PtrToCtx,
    /// A trusted BTF pointer of the given type.
    PtrToBtfId(BtfTypeId),
    /// Memory previously returned by an acquiring helper (ringbuf record).
    PtrToAllocMem,
}

/// Return type of a helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetType {
    /// A scalar integer.
    Integer,
    /// Nothing meaningful; `R0` becomes an arbitrary scalar.
    Void,
    /// Pointer to the value of the map in argument 1, or null.
    PtrToMapValueOrNull,
    /// Trusted BTF pointer of the given type (never null per contract).
    PtrToBtfId(BtfTypeId),
    /// Pointer to `size` bytes of fresh memory or null; the size comes
    /// from the constant in argument `size_arg`.
    PtrToAllocMemOrNull {
        /// Index of the size argument.
        size_arg: usize,
    },
}

/// One helper prototype plus runtime metadata.
#[derive(Debug, Clone, Serialize)]
pub struct FuncProto {
    /// Helper id.
    pub id: HelperId,
    /// Kernel name.
    pub name: &'static str,
    /// Return type.
    pub ret: RetType,
    /// Argument types (`None` = argument unused).
    pub args: [Option<ArgType>; 5],
    /// Program types allowed to call this helper (empty = all).
    pub allowed_prog_types: &'static [ProgType],
    /// The kernel lock the implementation takes, if any.
    pub acquires_lock: Option<LockId>,
    /// The tracepoint the implementation fires while holding its lock.
    pub fires_tracepoint: Option<Tracepoint>,
    /// Whether the helper is unsafe to call from NMI context (the fixed
    /// verifier rejects it for NMI program types — bug #6's missing check).
    pub nmi_unsafe: bool,
    /// Whether a successful call acquires a reference that must later be
    /// released (ringbuf reserve).
    pub acquires_ref: bool,
    /// Which argument releases a previously acquired reference.
    pub releases_ref_arg: Option<usize>,
}

const fn proto(
    id: HelperId,
    name: &'static str,
    ret: RetType,
    args: [Option<ArgType>; 5],
) -> FuncProto {
    FuncProto {
        id,
        name,
        ret,
        args,
        allowed_prog_types: &[],
        acquires_lock: None,
        fires_tracepoint: None,
        nmi_unsafe: false,
        acquires_ref: false,
        releases_ref_arg: None,
    }
}

/// The helper prototype table of the simulated kernel.
pub fn helper_protos() -> Vec<FuncProto> {
    use ArgType::*;
    use RetType::*;
    let mut v = vec![
        proto(
            ids::MAP_LOOKUP_ELEM,
            "bpf_map_lookup_elem",
            PtrToMapValueOrNull,
            [Some(ConstMapPtr(None)), Some(PtrToMapKey), None, None, None],
        ),
        proto(
            ids::MAP_UPDATE_ELEM,
            "bpf_map_update_elem",
            Integer,
            [
                Some(ConstMapPtr(None)),
                Some(PtrToMapKey),
                Some(PtrToMapValue),
                Some(Anything),
                None,
            ],
        ),
        proto(
            ids::MAP_DELETE_ELEM,
            "bpf_map_delete_elem",
            Integer,
            [Some(ConstMapPtr(None)), Some(PtrToMapKey), None, None, None],
        ),
        proto(ids::KTIME_GET_NS, "bpf_ktime_get_ns", Integer, [None; 5]),
        {
            let mut p = proto(
                ids::TRACE_PRINTK,
                "bpf_trace_printk",
                Integer,
                [
                    Some(PtrToMem { size_arg: 1 }),
                    Some(ConstSize { allow_zero: false }),
                    Some(Anything),
                    None,
                    None,
                ],
            );
            p.acquires_lock = Some(LockId::TracePrintk);
            p.fires_tracepoint = Some(Tracepoint::TracePrintk);
            p
        },
        proto(
            ids::GET_PRANDOM_U32,
            "bpf_get_prandom_u32",
            Integer,
            [None; 5],
        ),
        proto(
            ids::GET_SMP_PROCESSOR_ID,
            "bpf_get_smp_processor_id",
            Integer,
            [None; 5],
        ),
        proto(
            ids::TAIL_CALL,
            "bpf_tail_call",
            Integer,
            [
                Some(PtrToCtx),
                Some(ConstMapPtr(Some(MapType::ProgArray))),
                Some(Anything),
                None,
                None,
            ],
        ),
        proto(
            ids::GET_CURRENT_PID_TGID,
            "bpf_get_current_pid_tgid",
            Integer,
            [None; 5],
        ),
        proto(
            ids::GET_CURRENT_COMM,
            "bpf_get_current_comm",
            Integer,
            [
                Some(PtrToUninitMem { size_arg: 1 }),
                Some(ConstSize { allow_zero: false }),
                None,
                None,
                None,
            ],
        ),
        proto(
            ids::PERF_EVENT_OUTPUT,
            "bpf_perf_event_output",
            Integer,
            [
                Some(PtrToCtx),
                Some(ConstMapPtr(None)),
                Some(Anything),
                Some(PtrToMem { size_arg: 4 }),
                Some(ConstSize { allow_zero: false }),
            ],
        ),
        {
            let mut p = proto(
                ids::SKB_LOAD_BYTES,
                "bpf_skb_load_bytes",
                Integer,
                [
                    Some(PtrToCtx),
                    Some(Anything),
                    Some(PtrToUninitMem { size_arg: 3 }),
                    Some(ConstSize { allow_zero: false }),
                    None,
                ],
            );
            p.allowed_prog_types = &[
                ProgType::SocketFilter,
                ProgType::SchedCls,
                ProgType::CgroupSkb,
            ];
            p
        },
        {
            let mut p = proto(
                ids::XDP_ADJUST_HEAD,
                "bpf_xdp_adjust_head",
                Integer,
                [Some(PtrToCtx), Some(Anything), None, None, None],
            );
            p.allowed_prog_types = &[ProgType::Xdp];
            p
        },
        {
            let mut p = proto(
                ids::SEND_SIGNAL,
                "bpf_send_signal",
                Integer,
                [Some(Anything), None, None, None, None],
            );
            p.nmi_unsafe = true;
            p.acquires_lock = Some(LockId::IrqWork);
            p
        },
        proto(
            ids::PROBE_READ_KERNEL,
            "bpf_probe_read_kernel",
            Integer,
            [
                Some(PtrToUninitMem { size_arg: 1 }),
                Some(ConstSize { allow_zero: true }),
                Some(Anything),
                None,
                None,
            ],
        ),
        proto(ids::JIFFIES64, "bpf_jiffies64", Integer, [None; 5]),
        {
            let mut p = proto(
                ids::RINGBUF_OUTPUT,
                "bpf_ringbuf_output",
                Integer,
                [
                    Some(ConstMapPtr(Some(MapType::RingBuf))),
                    Some(PtrToMem { size_arg: 2 }),
                    Some(ConstSize { allow_zero: false }),
                    Some(Anything),
                    None,
                ],
            );
            p.acquires_lock = Some(LockId::Ringbuf);
            p.fires_tracepoint = Some(Tracepoint::ContentionBegin);
            p
        },
        {
            let mut p = proto(
                ids::RINGBUF_RESERVE,
                "bpf_ringbuf_reserve",
                PtrToAllocMemOrNull { size_arg: 1 },
                [
                    Some(ConstMapPtr(Some(MapType::RingBuf))),
                    Some(ConstSize { allow_zero: false }),
                    Some(Anything),
                    None,
                    None,
                ],
            );
            p.acquires_lock = Some(LockId::Ringbuf);
            p.fires_tracepoint = Some(Tracepoint::ContentionBegin);
            p.acquires_ref = true;
            p
        },
        {
            let mut p = proto(
                ids::RINGBUF_SUBMIT,
                "bpf_ringbuf_submit",
                Void,
                [Some(PtrToAllocMem), Some(Anything), None, None, None],
            );
            p.releases_ref_arg = Some(0);
            p
        },
        {
            let mut p = proto(
                ids::RINGBUF_DISCARD,
                "bpf_ringbuf_discard",
                Void,
                [Some(PtrToAllocMem), Some(Anything), None, None, None],
            );
            p.releases_ref_arg = Some(0);
            p
        },
        proto(
            ids::GET_CURRENT_TASK_BTF,
            "bpf_get_current_task_btf",
            RetType::PtrToBtfId(crate::btf::ids::TASK_STRUCT),
            [None; 5],
        ),
        {
            let mut p = proto(
                ids::QUEUE_WORK,
                "bvf_queue_work",
                Integer,
                [Some(Anything), None, None, None, None],
            );
            p.acquires_lock = Some(LockId::IrqWork);
            p
        },
        {
            let mut p = proto(
                ids::MAP_SUM_VALUES,
                "bvf_map_sum_values",
                Integer,
                [
                    Some(ConstMapPtr(Some(MapType::Hash))),
                    None,
                    None,
                    None,
                    None,
                ],
            );
            p.acquires_lock = Some(LockId::HashBucket);
            p
        },
    ];
    v.sort_by_key(|p| p.id);
    v
}

impl FuncProto {
    /// Whether the helper is callable from the given program type.
    pub fn allowed_for(&self, pt: ProgType) -> bool {
        self.allowed_prog_types.is_empty() || self.allowed_prog_types.contains(&pt)
    }
}

/// Looks up a helper prototype by id.
pub fn helper_proto(id: HelperId) -> Option<FuncProto> {
    helper_protos().into_iter().find(|p| p.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        let protos = helper_protos();
        assert!(protos.len() >= 20);
        // Ids unique.
        let mut ids: Vec<_> = protos.iter().map(|p| p.id).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
        // Declared args are contiguous from arg 0.
        for p in &protos {
            let mut seen_none = false;
            for a in &p.args {
                if a.is_none() {
                    seen_none = true;
                } else {
                    assert!(!seen_none, "{} has a gap in its args", p.name);
                }
            }
            // Size args reference declared arguments.
            for a in p.args.iter().flatten() {
                match a {
                    ArgType::PtrToMem { size_arg } | ArgType::PtrToUninitMem { size_arg } => {
                        assert!(
                            matches!(p.args[*size_arg], Some(ArgType::ConstSize { .. })),
                            "{}: size_arg {} must be ConstSize",
                            p.name,
                            size_arg
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(
            helper_proto(ids::MAP_LOOKUP_ELEM).unwrap().name,
            "bpf_map_lookup_elem"
        );
        assert!(helper_proto(0xdead).is_none());
    }

    #[test]
    fn prog_type_restrictions() {
        let skb = helper_proto(ids::SKB_LOAD_BYTES).unwrap();
        assert!(skb.allowed_for(ProgType::SocketFilter));
        assert!(!skb.allowed_for(ProgType::Xdp));
        let any = helper_proto(ids::KTIME_GET_NS).unwrap();
        for pt in ProgType::ALL {
            assert!(any.allowed_for(pt));
        }
    }

    #[test]
    fn ringbuf_ref_semantics_declared() {
        assert!(helper_proto(ids::RINGBUF_RESERVE).unwrap().acquires_ref);
        assert_eq!(
            helper_proto(ids::RINGBUF_SUBMIT).unwrap().releases_ref_arg,
            Some(0)
        );
        assert!(helper_proto(ids::SEND_SIGNAL).unwrap().nmi_unsafe);
    }
}
