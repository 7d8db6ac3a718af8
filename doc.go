// Package uavmw is a from-scratch Go implementation of the middleware
// architecture for unmanned aircraft avionics published by López, Royo,
// Pastor, Barrado and Santamaria at ACM/IFIP/USENIX Middleware 2007.
//
// The system is a service-container middleware for UAV mission and payload
// control: one container per network node manages service lifecycles, name
// resolution with proxy caching, and all network access, and offers four
// communication primitives. Name discovery is incremental: registrations
// multicast compact versioned deltas (MTAnnounceDelta) the moment they
// happen, the periodic beacon is a constant-size digest (MTHeartbeat) so
// steady-state discovery wire cost is O(nodes) rather than O(total
// records), and receivers repair version gaps, unknown nodes, and fresh
// epochs with unicast anti-entropy sync (MTSyncReq — catch-up deltas for
// small gaps, otherwise the full snapshot as one reliable MTAnnounce,
// fragmented over the MTU). The four primitives are Variables
// (best-effort multicast pub/sub),
// Events (guaranteed delivery, unicast per subscriber or group-addressed
// multicast with NACK-based gap repair via qos.DeliverMulticast), Remote
// Invocation (typed calls with redundancy failover — concurrent engine
// with the remaining deadline propagated on the wire, hedged failover via
// qos.CallQoS.HedgeAfter, and MTBusy admission control so overloaded
// providers shed instead of queueing), and File Transmission
// (an MFTP-like multicast bulk protocol). The implementation follows the
// paper's PEPt layering: pluggable Presentation, Encoding, Protocol and
// Transport subsystems plus a pluggable fixed-priority scheduler.
//
// Priority is enforced end to end, not just in the receiving scheduler:
// every datagram send drains through a priority-aware egress plane
// (internal/egress) of per-destination strict-priority lanes — bounded,
// drop-oldest on overflow for every class but PriorityBulk, whose sender
// waits once its lane holds a 16-frame window — a token-bucket pacer that
// shapes the PriorityBulk class per bearer (qos.BearerProfile.BulkRateBPS and
// BulkBurst, set only on the bearer's profile; file transfers have no rate
// of their own and run at the rate their lane drains) so file-transfer
// chunks never fill a constrained link's queue ahead of critical frames,
// and coalescing of small same-lane frames into MTBatch datagrams that
// receivers unpack transparently. Experiment E13 measures the priority
// inversion this removes on a 1 Mb/s air-to-ground link.
//
// Transmission spans redundant heterogeneous datalinks: a node registers N
// datagram bearers (core.WithBearer — e.g. short-range WiFi plus a
// long-range radio modem), each wrapped in a link monitor
// (internal/link) that tracks per-bearer liveness, probe RTT and loss
// (MTProbe/MTProbeEcho on idle links; every received packet otherwise),
// and each with its own egress lanes and bulk pacer keyed
// (bearer, destination, class). A policy layer (qos.BearerOrder, derived
// from the qos.BearerProfile of each bearer) routes classes onto bearers —
// bulk on the highest-rate healthy link, critical pinned to the most
// robust — and fails a class over within a failure deadline when its
// bearer blacks out: queued frames are rerouted, ARQ retransmissions
// re-select, and discovery (which rides every bearer, with per-bearer
// reachability advertised as naming.KindBearer records in the offer log)
// keeps peer liveness alive through any single link's loss. Experiment E14
// drives a mission through a WiFi→radio handover under a mid-run blackout.
//
// The module path is uavmw; build with go build ./... and verify with
// go test ./... (see README.md for the package map).
//
// Start with the README for the architecture map and, under "Benchmarks
// and experiments", the reproduced evaluation. The runnable entry points
// are in examples/ and cmd/.
//
// BenchmarkExperiment in this directory runs every entry of the experiment
// table (internal/experiments) at quick size and TestBaselines holds the
// guarded entries against testdata/bench_baseline; cmd/uavbench prints the
// full-size sweeps from the same table.
package uavmw
