package net

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Handler consumes packets delivered to a host.
type Handler func(*Packet)

// SwitchBalancer is the plug-in point for in-switch load balancing at leaf
// switches (CONGA, LetFlow, DRILL). Host-based schemes leave it nil and pin
// paths via Packet.Path instead.
type SwitchBalancer interface {
	// SelectUplink picks the spine index for a packet entering the fabric,
	// consulted only when the packet does not pin a path itself.
	SelectUplink(pkt *Packet, dstLeaf int) int
	// OnDepart runs for every packet entering the fabric at this leaf,
	// before uplink selection (CONGA stamps feedback here).
	OnDepart(pkt *Packet, dstLeaf int)
	// OnArrive runs for every packet leaving the fabric at this leaf
	// (CONGA harvests congestion metrics and feedback here).
	OnArrive(pkt *Packet, srcLeaf int)
}

// Host is an end system attached to a leaf switch.
type Host struct {
	ID   int
	Leaf int

	net      *Network
	uplink   *Port
	handlers [nKinds]Handler
}

// Handle registers the consumer for a packet kind at this host.
func (h *Host) Handle(k Kind, fn Handler) { h.handlers[k] = fn }

// Send injects a packet into the fabric through the host's access link,
// attaching a zeroed delay record while a delay account is armed.
// Ownership of the packet transfers to the fabric: once delivered (or
// dropped) it is recycled into the network's packet pool, so callers must
// not retain or re-send it.
func (h *Host) Send(pkt *Packet) {
	h.net.injected++
	if h.net.acct != nil {
		pkt.delay = h.net.allocDelay()
	}
	h.uplink.Enqueue(pkt)
}

// Uplink exposes the access-link port (for utilization accounting).
func (h *Host) Uplink() *Port { return h.uplink }

// Network returns the fabric this host is attached to.
func (h *Host) Network() *Network { return h.net }

func (h *Host) deliver(pkt *Packet) {
	h.net.delivered++
	if pkt.Kind == Data || pkt.Kind == UDPData {
		h.net.deliveredPayload += uint64(pkt.Payload)
	}
	if h.net.acct != nil {
		h.net.acct.observe(pkt)
	}
	if fn := h.handlers[pkt.Kind]; fn != nil {
		fn(pkt)
	}
	// The packet's life ends at the sink: recycle it once the handler
	// returns. Handlers that need fields past their return must copy them.
	h.net.FreePacket(pkt)
}

// Switch is a leaf or spine switch.
type Switch struct {
	IsLeaf bool
	Index  int // leaf index or spine index

	net *Network

	// Leaf: up[s] reaches spine s, down[i] reaches the i-th local host.
	// Spine: down[l] reaches leaf l; up is nil.
	up   []*Port
	down []*Port

	// dropFns are the registered malfunction hooks (§2.1): a packet is
	// silently dropped when ANY hook claims it. Every hook sees every
	// transiting packet — there is no short-circuit — so co-resident
	// injectors (e.g. a blackhole and a random-drop on the same spine)
	// each observe the full stream and keep accurate counters. Register
	// with AddDropFn, unregister with RemoveDropFn.
	dropFns    []dropHook
	nextDropID int

	// Drops counts packets the malfunction hooks swallowed (silent switch
	// drops). Part of the packet-conservation invariant.
	Drops uint64

	// Balancer, on leaf switches, performs in-switch path selection.
	Balancer SwitchBalancer
}

// dropHook is one registered malfunction predicate with a handle for
// removal.
type dropHook struct {
	id int
	fn func(*Packet) bool
}

// AddDropFn registers a malfunction hook on this switch and returns a handle
// for RemoveDropFn. Hooks compose: each one is consulted for every transiting
// packet, and the packet is dropped if any claims it.
func (s *Switch) AddDropFn(fn func(*Packet) bool) int {
	s.nextDropID++
	s.dropFns = append(s.dropFns, dropHook{id: s.nextDropID, fn: fn})
	return s.nextDropID
}

// RemoveDropFn unregisters the hook with the given handle. Unknown handles
// are ignored (clearing an injector twice is harmless).
func (s *Switch) RemoveDropFn(id int) {
	for i, h := range s.dropFns {
		if h.id == id {
			s.dropFns = append(s.dropFns[:i], s.dropFns[i+1:]...)
			return
		}
	}
}

// DropFnCount returns the number of registered malfunction hooks.
func (s *Switch) DropFnCount() int { return len(s.dropFns) }

// ConsultDropFns runs every registered hook against pkt (no short-circuit,
// so each injector sees the full packet stream) and reports whether any
// claimed it. It does not count the drop or free the packet; receive() does.
func (s *Switch) ConsultDropFns(pkt *Packet) bool {
	drop := false
	for _, h := range s.dropFns {
		if h.fn(pkt) {
			drop = true
		}
	}
	return drop
}

// Uplink returns the port toward spine s (leaf switches only).
func (s *Switch) Uplink(spine int) *Port { return s.up[spine] }

// Downlink returns the port toward local host slot i (leaf) or leaf i (spine).
func (s *Switch) Downlink(i int) *Port { return s.down[i] }

func (s *Switch) receive(pkt *Packet) {
	if len(s.dropFns) > 0 && s.ConsultDropFns(pkt) {
		s.Drops++
		if s.net.onSwitchDrop != nil {
			s.net.onSwitchDrop(pkt)
		}
		s.net.FreePacket(pkt)
		return
	}
	n := s.net
	if !s.IsLeaf {
		// Spine: forward down toward the destination leaf over the same
		// cable index the packet arrived on (cables are independent links).
		s.down[n.hostLeaf[pkt.Dst]*n.cables+n.pathCable[pkt.Path]].Enqueue(pkt)
		return
	}
	dstLeaf := n.hostLeaf[pkt.Dst]
	if dstLeaf == s.Index {
		// Down direction (from fabric or local host) toward the host.
		if srcLeaf := n.hostLeaf[pkt.Src]; srcLeaf != s.Index && s.Balancer != nil {
			s.Balancer.OnArrive(pkt, srcLeaf)
		}
		s.down[pkt.Dst-n.firstHost(s.Index)].Enqueue(pkt)
		return
	}
	// Up direction: pick a spine.
	if s.Balancer != nil {
		s.Balancer.OnDepart(pkt, dstLeaf)
	}
	path := pkt.Path
	if path < 0 {
		if s.Balancer != nil {
			path = s.Balancer.SelectUplink(pkt, dstLeaf)
		} else {
			// Default ECMP hash on the flow id.
			path = int(hash64(pkt.Flow) % uint64(len(s.up)))
		}
		pkt.Path = path
	}
	if path < 0 || path >= len(s.up) {
		path = int(hash64(pkt.Flow) % uint64(len(s.up)))
		pkt.Path = path
	}
	s.up[path].Enqueue(pkt)
}

// hash64 is a 64-bit mix (splitmix64 finalizer) used for flow hashing.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Config describes a leaf-spine fabric.
type Config struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	HostRateBps   int64
	FabricRateBps int64

	HostDelay   sim.Time // one-way propagation, host <-> leaf
	FabricDelay sim.Time // one-way propagation, leaf <-> spine

	// QueueFactor sizes each port's drop-tail queue as QueueFactor x the
	// ECN threshold (0 = default 5). Shallow-buffer switches (2-3x) drop on
	// transient spikes that deep buffers absorb.
	QueueFactor int

	// CablesPerLink is the number of parallel physical cables per
	// leaf-spine pair (0/1 = one). The paper's testbed wires two 1 Gbps
	// cables per pair; XPath enumerates each cable as a distinct path, so
	// a "link cut" removes one path of four rather than a whole spine.
	CablesPerLink int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Leaves < 2:
		return fmt.Errorf("net: need at least 2 leaves, got %d", c.Leaves)
	case c.Spines < 1:
		return fmt.Errorf("net: need at least 1 spine, got %d", c.Spines)
	case c.HostsPerLeaf < 1:
		return fmt.Errorf("net: need at least 1 host per leaf, got %d", c.HostsPerLeaf)
	case c.HostRateBps <= 0 || c.FabricRateBps <= 0:
		return fmt.Errorf("net: link rates must be positive")
	case c.CablesPerLink < 0:
		return fmt.Errorf("net: CablesPerLink must be non-negative")
	}
	return nil
}

// cables returns the effective cables-per-link count.
func (c Config) cables() int {
	if c.CablesPerLink <= 0 {
		return 1
	}
	return c.CablesPerLink
}

// Network is a fully wired leaf-spine fabric.
type Network struct {
	Eng *sim.Engine
	Rng *sim.RNG
	Cfg Config

	Hosts  []*Host
	Leaves []*Switch
	Spines []*Switch

	// fabric[l][p] is the current capacity of cable/path p at leaf l
	// (both directions), where p = spine*cables + cable.
	fabric [][]int64

	// hostLeaf[h] is host h's leaf and pathCable[p] path p's cable within
	// its leaf-spine link, cables the cable count: the forwarding path reads
	// them instead of dividing.
	hostLeaf  []int
	pathCable []int
	cables    int

	// pathCache[srcLeaf*Leaves+dstLeaf] holds the usable paths between two
	// leaves once AvailablePaths has listed them; SetCable clears it.
	pathCache []pathSet

	// Packet pool: packets recycled at their sink (final host delivery or
	// any drop), linked through Packet.next and counted by nFree, plus a
	// block of never-used structs. AllocPacket hands them back out, so a
	// warm steady state allocates no packets at all.
	pktFree  *Packet
	nFree    int
	pktChunk []Packet
	// delayFree holds the delay records of recycled packets (traced runs
	// only: records exist only while acct is armed).
	delayFree []*Delay

	// Conservation counters (plain adds; always on).
	injected  uint64 // packets entering the fabric via Host.Send
	delivered uint64 // packets reaching their destination host
	// deliveredPayload sums the payload bytes of Data/UDPData packets
	// delivered to hosts: application goodput, excluding headers, ACKs,
	// probes and in-flight retransmit duplicates of already-lost bytes.
	deliveredPayload uint64

	// acct, when non-nil, aggregates per-flow per-hop delay decomposition at
	// every host delivery (EnableDelayAccount).
	acct *DelayAccount
	// onSwitchDrop mirrors the per-port drop hook for silent DropFn drops
	// (SetTraceHooks).
	onSwitchDrop func(*Packet)
}

// SetTraceHooks installs fabric-wide observers for the two packet fates the
// trace layer cannot see through ACKs: drops (drop-tail, down links and
// silent switch drops) and ECN marks at the marking port. Either hook may be
// nil. Off by default; each costs one nil check on its own (already rare)
// path, keeping the forwarding hot path untouched.
func (n *Network) SetTraceHooks(onDrop, onMark func(*Packet)) {
	n.onSwitchDrop = onDrop
	n.ForEachPort(func(p *Port) {
		p.onDrop = onDrop
		p.onMark = onMark
	})
}

// AllocPacket returns a packet from the network's free list (or a fresh
// one). The contents are UNDEFINED: callers must overwrite the whole struct,
// conventionally with `*pkt = Packet{...}`. Ownership passes back to the
// pool when the fabric delivers or drops the packet.
func (n *Network) AllocPacket() *Packet {
	if p := n.pktFree; p != nil {
		n.pktFree = p.next
		n.nFree--
		return p
	}
	if len(n.pktChunk) == 0 {
		n.pktChunk = make([]Packet, 128)
	}
	p := &n.pktChunk[0]
	n.pktChunk = n.pktChunk[1:]
	return p
}

// FreePacket returns a packet, and its delay record if it carries one, to
// the pool. Called by the fabric at every packet sink; call it directly only
// for packets that never entered the fabric (ownership rules in Host.Send).
func (n *Network) FreePacket(p *Packet) {
	if p.delay != nil {
		n.delayFree = append(n.delayFree, p.delay)
		p.delay = nil
	}
	p.next = n.pktFree
	n.pktFree = p
	n.nFree++
}

// allocDelay returns a zeroed delay record from the pool, or a fresh one.
func (n *Network) allocDelay() *Delay {
	k := len(n.delayFree)
	if k == 0 {
		return new(Delay)
	}
	d := n.delayFree[k-1]
	n.delayFree = n.delayFree[:k-1]
	*d = Delay{}
	return d
}

// NewLeafSpine builds the fabric described by cfg.
func NewLeafSpine(eng *sim.Engine, rng *sim.RNG, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	C := cfg.cables()
	n := &Network{Eng: eng, Rng: rng, Cfg: cfg, cables: C,
		pathCache: make([]pathSet, cfg.Leaves*cfg.Leaves)}
	for p := 0; p < cfg.Spines*C; p++ {
		n.pathCable = append(n.pathCable, p%C)
	}
	for l := 0; l < cfg.Leaves; l++ {
		n.Leaves = append(n.Leaves, &Switch{IsLeaf: true, Index: l, net: n})
	}
	for s := 0; s < cfg.Spines; s++ {
		n.Spines = append(n.Spines, &Switch{Index: s, net: n})
	}
	for id := 0; id < cfg.Leaves*cfg.HostsPerLeaf; id++ {
		n.hostLeaf = append(n.hostLeaf, id/cfg.HostsPerLeaf)
		n.Hosts = append(n.Hosts, &Host{ID: id, Leaf: n.hostLeaf[id], net: n})
	}
	qf := cfg.QueueFactor
	hostPort := PortConfig{RateBps: cfg.HostRateBps, PropDelay: cfg.HostDelay, ECNK: -1,
		QueueCap: qf * DefaultECNK(cfg.HostRateBps)}
	fabricPort := PortConfig{RateBps: cfg.FabricRateBps, PropDelay: cfg.FabricDelay, ECNK: -1,
		QueueCap: qf * DefaultECNK(cfg.FabricRateBps)}

	// newPort wires every fabric port into the shared packet pool so drops
	// recycle their packet.
	newPort := func(name string, cfg PortConfig, deliver func(*Packet)) *Port {
		pt := NewPort(eng, name, cfg, deliver)
		pt.recycle = n.FreePacket
		return pt
	}

	n.fabric = make([][]int64, cfg.Leaves)
	for l, leaf := range n.Leaves {
		n.fabric[l] = make([]int64, cfg.Spines*C)
		for s := range n.Spines {
			sp := n.Spines[s]
			for c := 0; c < C; c++ {
				p := s*C + c
				n.fabric[l][p] = cfg.FabricRateBps
				leaf.up = append(leaf.up, newPort(
					fmt.Sprintf("leaf%d->spine%d.%d", l, s, c), fabricPort, sp.receive))
				// spine.down is indexed leaf*C + cable.
				sp.down = append(sp.down, newPort(
					fmt.Sprintf("spine%d->leaf%d.%d", s, l, c), fabricPort, leaf.receive))
			}
		}
		for i := 0; i < cfg.HostsPerLeaf; i++ {
			h := n.Hosts[l*cfg.HostsPerLeaf+i]
			h.uplink = newPort(fmt.Sprintf("host%d->leaf%d", h.ID, l), hostPort, leaf.receive)
			leaf.down = append(leaf.down, newPort(fmt.Sprintf("leaf%d->host%d", l, h.ID), hostPort, h.deliver))
		}
	}
	return n, nil
}

// ForEachPort visits every port of the fabric in a deterministic order.
func (n *Network) ForEachPort(fn func(*Port)) {
	for _, leaf := range n.Leaves {
		for _, p := range leaf.up {
			fn(p)
		}
		for _, p := range leaf.down {
			fn(p)
		}
	}
	for _, sp := range n.Spines {
		for _, p := range sp.down {
			fn(p)
		}
	}
	for _, h := range n.Hosts {
		fn(h.uplink)
	}
}

// MaxFabricQueueCap returns the largest drop-tail queue capacity among the
// fabric (leaf-spine) ports — the ports that carry per-port queue series on
// the flight recorder. Alert thresholds (queue-saturation) size against it.
func (n *Network) MaxFabricQueueCap() int {
	max := 0
	for _, leaf := range n.Leaves {
		for _, p := range leaf.up {
			if p.queueCap > max {
				max = p.queueCap
			}
		}
	}
	for _, sp := range n.Spines {
		for _, p := range sp.down {
			if p.queueCap > max {
				max = p.queueCap
			}
		}
	}
	return max
}

// PacketStats summarizes the fabric-wide packet ledger.
type PacketStats struct {
	Injected    uint64 // packets that entered via Host.Send
	Delivered   uint64 // packets delivered to a destination host
	PortDrops   uint64 // drop-tail, down-link drops across all ports
	SwitchDrops uint64 // silent DropFn drops (blackholes, random drops)
	InFlight    int64  // packets currently queued, transmitting or propagating
}

// PacketStats computes the current ledger by summing the per-port and
// per-switch counters.
func (n *Network) PacketStats() PacketStats {
	st := PacketStats{Injected: n.injected, Delivered: n.delivered}
	n.ForEachPort(func(p *Port) {
		st.PortDrops += p.Drops
		st.InFlight += p.holding
	})
	for _, sw := range n.Leaves {
		st.SwitchDrops += sw.Drops
	}
	for _, sw := range n.Spines {
		st.SwitchDrops += sw.Drops
	}
	return st
}

// CheckConservation verifies the packet-conservation invariant: every packet
// injected has been delivered, dropped, or is still in flight. A violation
// means the fabric (or a pooling bug) leaked or duplicated a packet.
func (n *Network) CheckConservation() error {
	st := n.PacketStats()
	accounted := st.Delivered + st.PortDrops + st.SwitchDrops + uint64(st.InFlight)
	if st.InFlight < 0 || st.Injected != accounted {
		return fmt.Errorf("net: packet conservation violated: injected %d != delivered %d + portDrops %d + switchDrops %d + inFlight %d",
			st.Injected, st.Delivered, st.PortDrops, st.SwitchDrops, st.InFlight)
	}
	return nil
}

// PathSpine maps a path index to its spine switch index.
func (n *Network) PathSpine(path int) int { return path / n.Cfg.cables() }

// PathCable maps a path index to its cable index within the spine link.
func (n *Network) PathCable(path int) int { return n.pathCable[path] }

// UplinkPort returns leaf's port for the given path.
func (n *Network) UplinkPort(leaf, path int) *Port { return n.Leaves[leaf].up[path] }

// DownlinkPort returns the spine-side port of the given path toward leaf.
func (n *Network) DownlinkPort(path, leaf int) *Port {
	return n.Spines[n.PathSpine(path)].down[leaf*n.Cfg.cables()+n.PathCable(path)]
}

// LeafOf returns the leaf index of a host id.
func (n *Network) LeafOf(host int) int { return n.hostLeaf[host] }

func (n *Network) firstHost(leaf int) int { return leaf * n.Cfg.HostsPerLeaf }

// NPaths returns the number of parallel paths between distinct leaves
// (spines x cables per link).
func (n *Network) NPaths() int { return n.Cfg.Spines * n.Cfg.cables() }

// SetFabricLink re-rates both directions of every cable of the leaf<->spine
// link. A zero rate cuts the link entirely.
func (n *Network) SetFabricLink(leaf, spine int, rateBps int64) {
	for c := 0; c < n.Cfg.cables(); c++ {
		n.SetCable(leaf, spine, c, rateBps)
	}
}

// SetCable re-rates both directions of one physical cable of a leaf<->spine
// link (the paper's testbed link cut removes exactly one cable).
func (n *Network) SetCable(leaf, spine, cable int, rateBps int64) {
	p := spine*n.Cfg.cables() + cable
	n.fabric[leaf][p] = rateBps
	n.Leaves[leaf].up[p].SetRateBps(rateBps)
	n.Spines[spine].down[leaf*n.Cfg.cables()+cable].SetRateBps(rateBps)
	clear(n.pathCache)
}

// Cables returns the number of parallel physical cables per leaf-spine pair.
func (n *Network) Cables() int { return n.Cfg.cables() }

// CableRate returns the current capacity of one cable of a leaf<->spine link.
func (n *Network) CableRate(leaf, spine, cable int) int64 {
	return n.fabric[leaf][spine*n.Cfg.cables()+cable]
}

// FabricLinkRate returns the current total leaf<->spine capacity across all
// cables of the pair.
func (n *Network) FabricLinkRate(leaf, spine int) int64 {
	var total int64
	for c := 0; c < n.Cfg.cables(); c++ {
		total += n.fabric[leaf][spine*n.Cfg.cables()+c]
	}
	return total
}

// AvailablePaths lists the path indices usable between two distinct leaves
// (both hops up and down must be alive). The returned slice is shared; do
// not mutate it.
func (n *Network) AvailablePaths(srcLeaf, dstLeaf int) []int {
	c := &n.pathCache[srcLeaf*n.Cfg.Leaves+dstLeaf]
	if c.listed {
		return c.paths
	}
	var ps []int
	for p := 0; p < n.NPaths(); p++ {
		if n.fabric[srcLeaf][p] > 0 && n.fabric[dstLeaf][p] > 0 {
			ps = append(ps, p)
		}
	}
	*c = pathSet{paths: ps, listed: true}
	return ps
}

// pathSet is one pathCache entry: paths is nil both before listing and
// when no path is usable, so listed tells the two apart.
type pathSet struct {
	paths  []int
	listed bool
}

// PathCapacityBps returns the bottleneck fabric capacity of path p between
// two leaves.
func (n *Network) PathCapacityBps(srcLeaf, dstLeaf, p int) int64 {
	up, down := n.fabric[srcLeaf][p], n.fabric[dstLeaf][p]
	if up < down {
		return up
	}
	return down
}

// BisectionBps returns the aggregate usable leaf->spine capacity, the
// normalization base for offered load.
func (n *Network) BisectionBps() int64 {
	var total int64
	for l := range n.fabric {
		for s := range n.fabric[l] {
			total += n.fabric[l][s]
		}
	}
	return total / 2 // half the fabric carries each direction on average
}

// ApproxBaseRTT estimates the unloaded inter-leaf RTT for a full-size data
// segment and its pure ACK: four store-and-forward hops each way plus
// propagation.
func (n *Network) ApproxBaseRTT() sim.Time {
	tx := func(bytes int, rate int64) sim.Time {
		return sim.Time(int64(bytes) * 8 * sim.Second / rate)
	}
	fwd := 2*n.Cfg.HostDelay + 2*n.Cfg.FabricDelay +
		2*tx(MaxPacketBytes, n.Cfg.HostRateBps) + 2*tx(MaxPacketBytes, n.Cfg.FabricRateBps)
	rev := 2*n.Cfg.HostDelay + 2*n.Cfg.FabricDelay +
		2*tx(AckBytes, n.Cfg.HostRateBps) + 2*tx(AckBytes, n.Cfg.FabricRateBps)
	return fwd + rev
}

// OneHopDelay returns the queueing delay of one fully loaded fabric hop,
// the paper's guideline for T_RTT_high and Delta_RTT (§3.3): ECN marking
// threshold divided by link capacity.
func (n *Network) OneHopDelay() sim.Time {
	k := DefaultECNK(n.Cfg.FabricRateBps)
	return sim.Time(int64(k) * 8 * sim.Second / n.Cfg.FabricRateBps)
}
