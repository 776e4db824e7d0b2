//! A run's open-loop arrival list, kept once and shared by every domain of
//! a sharded run: each domain registers a flow from it only when the flow
//! starts there or its first packet lands there (see
//! [`crate::TransportLayer::attach_schedule`]).

use crate::layer::{intern, FlowRecord, FlowSpec, TransportKind};
use conga_net::{HostId, PartitionTable};
use conga_sim::SimTime;

/// One flow of a [`Schedule`]: 32 bytes where an arrival, a [`FlowSpec`]
/// with its start, is 88.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Planned {
    pub start: SimTime,
    pub bytes: u64,
    pub src: HostId,
    pub dst: HostId,
    /// Index into [`Schedule::kinds`].
    pub kind: u16,
    /// The domain whose start timer activates the flow: its sender's.
    pub tx_domain: u16,
}

impl Planned {
    /// The flow's record before it has run.
    pub fn record(&self) -> FlowRecord {
        FlowRecord::planned(self.src, self.dst, self.bytes, self.start)
    }
}

/// Flows to start at planned times, in start order; flow `i` of the run
/// is entry `i`.
#[derive(Debug)]
pub struct Schedule {
    pub(crate) flows: Vec<Planned>,
    /// The distinct transports, interned (a run has a handful).
    pub(crate) kinds: Vec<TransportKind>,
    /// Per domain: the subflows of the flows it starts.
    local: Vec<u64>,
}

impl Schedule {
    /// The schedule of `arrivals`, whose start times must not decrease,
    /// over the domains of `table`.
    pub fn new(
        arrivals: impl IntoIterator<Item = (SimTime, FlowSpec)>,
        table: &PartitionTable,
    ) -> Self {
        Self::over(arrivals, table.n_domains(), |h| table.host_domain(h))
    }

    /// The schedule of `arrivals` over `n_domains` domains, `domain_of`
    /// naming each host's: [`TransportLayer::attach_source`]'s one domain
    /// needs no table.
    ///
    /// [`TransportLayer::attach_source`]: crate::TransportLayer::attach_source
    pub(crate) fn over(
        arrivals: impl IntoIterator<Item = (SimTime, FlowSpec)>,
        n_domains: usize,
        domain_of: impl Fn(HostId) -> usize,
    ) -> Self {
        assert!(n_domains <= 1 << 16, "{n_domains} domains exceed u16");
        let mut kinds: Vec<TransportKind> = Vec::new();
        let mut local = vec![0; n_domains];
        let mut last = SimTime::ZERO;
        let flows = arrivals
            .into_iter()
            .map(|(start, spec)| {
                assert!(start >= last, "arrivals out of start order");
                last = start;
                let (kind, subflows) = intern(&mut kinds, spec.kind);
                let tx_domain = domain_of(spec.src);
                local[tx_domain] += subflows;
                Planned {
                    start,
                    bytes: spec.bytes,
                    src: spec.src,
                    dst: spec.dst,
                    kind: u16::try_from(kind).expect("more than 65536 transports"),
                    tx_domain: tx_domain as u16,
                }
            })
            .collect();
        Schedule {
            flows,
            kinds,
            local,
        }
    }

    /// Flows in the schedule.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the schedule has no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flow `i`'s record before it has run (`None` past the end).
    pub fn record(&self, i: usize) -> Option<FlowRecord> {
        self.flows.get(i).map(Planned::record)
    }

    /// Every flow's planned start, in flow order.
    pub fn starts(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.flows.iter().map(|p| p.start)
    }

    /// The subflows of the flows `domain`'s start timers start.
    pub fn local(&self, domain: usize) -> u64 {
        self.local[domain]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planned_flow_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Planned>(), 32);
    }
}
