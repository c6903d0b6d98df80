// Package fleet is the distribution layer of the compile service: the
// pieces that turn a set of independent recordd nodes into one fleet that
// survives any single node dying mid-compile.
//
// It provides two mechanisms, both deterministic; the client-side Fleet
// (internal/rclient) is their user:
//
//   - Ring: a consistent-hash ring with virtual nodes, keyed on the
//     artifact SHA-256 content address (internal/artifact).  The ring
//     decides which node owns a model's retarget product; removing a node
//     remaps only that node's keys, so a node death never reshuffles the
//     whole fleet's cache locality.
//
//   - Tracker: a per-endpoint health state machine
//     (healthy → suspect → down → probing) driven by request outcomes and
//     periodic /healthz probes (Prober), with an injectable clock so the
//     full lifecycle is unit-testable without wall time.
//
// Everything here is safe for concurrent use and stdlib-only, in the
// style of internal/resilience.
package fleet
