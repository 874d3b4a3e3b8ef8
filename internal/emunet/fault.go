package emunet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"manetkit/internal/mnet"
)

// FaultPlan is a seeded, scripted schedule of medium-level faults: network
// partitions that later heal, node crash+restart (Detach/Reattach with the
// deployment layer invoked for state loss), and windows of frame
// corruption, duplication and reordering injected into the delivery path.
//
// All fault timing runs on the network's clock, and all fault randomness
// comes from a dedicated generator seeded by Seed — independent of the
// medium's loss process — so a plan replayed against an identically seeded
// Network produces byte-identical Stats and firing logs. Build a plan with
// the fluent helpers, then Apply it:
//
//	plan := emunet.NewFaultPlan(7).
//		Partition(15*time.Second, 25*time.Second, groupA, groupB).
//		Crash(27*time.Second, 33*time.Second, addrs[2]).
//		CorruptFrames(36*time.Second, 44*time.Second, 0.25)
//	inj := plan.Apply(net)
//	... drive the clock ...
//	for _, line := range inj.Log() { fmt.Println(line) }
type FaultPlan struct {
	// Seed drives the fault randomness (corruption positions, duplication
	// and reorder draws). Zero means 1.
	Seed int64
	// OnCrash, when non-nil, runs right after a Crash event detaches the
	// node — the deployment layer's chance to halt the node's protocols.
	OnCrash func(addr mnet.Addr)
	// OnRestart, when non-nil, runs right after the node is re-attached —
	// the deployment layer's chance to flush protocol state (the "with
	// state loss" half of crash+restart) and restart its protocols.
	OnRestart func(addr mnet.Addr)

	events []planEvent
}

type planEvent struct {
	at  time.Duration
	run func(n *Network, inj *Injector)
}

// NewFaultPlan returns an empty plan with the given fault seed.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{Seed: seed} }

// Partition cuts, at time at, every link that crosses between the given
// node groups (both directions, quality remembered), and restores the cut
// links at time heal. Nodes absent from every group keep all their links.
func (p *FaultPlan) Partition(at, heal time.Duration, groups ...[]mnet.Addr) *FaultPlan {
	var saved []savedLink
	p.events = append(p.events, planEvent{at, func(n *Network, inj *Injector) {
		saved = cutAcross(n, groups)
		inj.logf(n, "partition %s: cut %d links", describeGroups(groups), len(saved))
	}})
	p.events = append(p.events, planEvent{heal, func(n *Network, inj *Injector) {
		restored := restoreLinks(n, saved)
		inj.logf(n, "heal: restored %d links", restored)
	}})
	return p
}

// Crash detaches addr from the medium at time at — its transmissions fail
// and in-flight deliveries to it are dropped — and re-attaches it at time
// restart with its crash-time links restored. The plan's OnCrash/OnRestart
// hooks let the deployment layer stop the node's protocols and flush their
// state, completing the "restart with state loss" semantics.
func (p *FaultPlan) Crash(at, restart time.Duration, addr mnet.Addr) *FaultPlan {
	var (
		nic   *NIC
		saved []savedLink
	)
	p.events = append(p.events, planEvent{at, func(n *Network, inj *Injector) {
		got, ok := n.NIC(addr)
		if !ok {
			inj.logf(n, "crash %v: skipped, not attached", addr)
			return
		}
		nic = got
		saved = linksOf(n, addr)
		_ = n.Detach(addr)
		inj.logf(n, "crash %v: detached, %d links lost", addr, len(saved))
		if p.OnCrash != nil {
			p.OnCrash(addr)
		}
	}})
	p.events = append(p.events, planEvent{restart, func(n *Network, inj *Injector) {
		if nic == nil {
			inj.logf(n, "restart %v: skipped, never crashed", addr)
			return
		}
		if err := n.Reattach(nic); err != nil {
			inj.logf(n, "restart %v: %v", addr, err)
			return
		}
		restored := restoreLinks(n, saved)
		inj.logf(n, "restart %v: re-attached, %d links restored", addr, restored)
		if p.OnRestart != nil {
			p.OnRestart(addr)
		}
	}})
	return p
}

// CorruptFrames mangles each delivered frame with probability prob during
// [from, to): one to three payload bytes are flipped and the frame's
// Corrupted bit is set (the FCS-would-have-failed marker).
func (p *FaultPlan) CorruptFrames(from, to time.Duration, prob float64) *FaultPlan {
	return p.window(from, to, "corrupt", prob, func(inj *Injector, v float64) { inj.corruptP = v })
}

// DuplicateFrames delivers an extra copy of each frame with probability
// prob during [from, to); the duplicate arrives one propagation delay late.
func (p *FaultPlan) DuplicateFrames(from, to time.Duration, prob float64) *FaultPlan {
	return p.window(from, to, "duplicate", prob, func(inj *Injector, v float64) { inj.dupP = v })
}

// ReorderFrames delays each frame by a random jitter in (0, jitter] with
// probability prob during [from, to), letting later transmissions overtake
// it.
func (p *FaultPlan) ReorderFrames(from, to time.Duration, prob float64, jitter time.Duration) *FaultPlan {
	if jitter <= 0 {
		jitter = 5 * time.Millisecond
	}
	p.events = append(p.events, planEvent{from, func(n *Network, inj *Injector) {
		inj.reorderP, inj.jitter = prob, jitter
		inj.logf(n, "reorder window on p=%g jitter=%v", prob, jitter)
	}})
	p.events = append(p.events, planEvent{to, func(n *Network, inj *Injector) {
		inj.reorderP = 0
		inj.logf(n, "reorder window off")
	}})
	return p
}

func (p *FaultPlan) window(from, to time.Duration, kind string, prob float64, set func(*Injector, float64)) *FaultPlan {
	p.events = append(p.events, planEvent{from, func(n *Network, inj *Injector) {
		set(inj, prob)
		inj.logf(n, "%s window on p=%g", kind, prob)
	}})
	p.events = append(p.events, planEvent{to, func(n *Network, inj *Injector) {
		set(inj, 0)
		inj.logf(n, "%s window off", kind)
	}})
	return p
}

// Apply installs the plan's injector on the network and schedules every
// event on the network's clock, relative to now. It returns the Injector,
// whose Log method yields the deterministic firing log.
func (p *FaultPlan) Apply(n *Network) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	inj := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		epoch: n.clock.Now(),
	}
	n.mu.Lock()
	n.inj = inj
	n.mu.Unlock()

	// Stable order: events scheduled in plan order; the virtual clock
	// breaks equal-deadline ties by registration sequence. Events due at or
	// before now run immediately so a window opening at t=0 covers frames
	// sent before the clock first advances.
	for _, ev := range p.events {
		ev := ev
		if ev.at <= 0 {
			ev.run(n, inj)
			continue
		}
		n.ScheduleAt(ev.at, func(net *Network) { ev.run(net, inj) })
	}
	return inj
}

// Injector is the live fault state installed by FaultPlan.Apply: the
// per-frame fault probabilities, the dedicated fault randomness, and the
// firing log. All fields are guarded by the owning Network's mutex.
type Injector struct {
	rng      *rand.Rand
	epoch    time.Time
	corruptP float64
	dupP     float64
	reorderP float64
	jitter   time.Duration
	log      []string
}

// extraDelivery is an additional (duplicated) delivery produced by
// injection.
type extraDelivery struct {
	frame Frame
	delay time.Duration
}

// injectLocked applies per-frame faults to one delivery: possibly corrupts
// the frame, possibly delays it (reordering), and possibly returns extra
// duplicated deliveries. Caller holds the network mutex.
func (inj *Injector) injectLocked(n *Network, to mnet.Addr, f *Frame, delay *time.Duration) []extraDelivery {
	var extras []extraDelivery
	if inj.corruptP > 0 && inj.rng.Float64() < inj.corruptP {
		inj.corruptFrameLocked(n, to, f)
	}
	if inj.dupP > 0 && inj.rng.Float64() < inj.dupP {
		dup := *f
		dup.Payload = append([]byte(nil), f.Payload...)
		extras = append(extras, extraDelivery{dup, *delay * 2})
		n.stats.Duplicated++
		inj.logf(n, "duplicate %v->%v (%dB)", f.Src, to, len(f.Payload))
	}
	if inj.reorderP > 0 && inj.rng.Float64() < inj.reorderP {
		// 1..jitter in whole clock ticks of the jitter's granularity.
		extra := time.Duration(inj.rng.Int63n(int64(inj.jitter))) + 1
		*delay += extra
		n.stats.Reordered++
		inj.logf(n, "reorder %v->%v +%v", f.Src, to, extra)
	}
	return extras
}

// corruptOnlyLocked applies only the corruption fault — used on the
// MAC-feedback (802.11 ACK) path where duplication and reordering are
// suppressed by the ACK exchange. Caller holds the network mutex.
func (inj *Injector) corruptOnlyLocked(n *Network, to mnet.Addr, f *Frame) {
	if inj.corruptP > 0 && inj.rng.Float64() < inj.corruptP {
		inj.corruptFrameLocked(n, to, f)
	}
}

func (inj *Injector) corruptFrameLocked(n *Network, to mnet.Addr, f *Frame) {
	if len(f.Payload) == 0 {
		return
	}
	buf := append([]byte(nil), f.Payload...)
	flips := 1 + inj.rng.Intn(3)
	if flips > len(buf) {
		flips = len(buf)
	}
	for i := 0; i < flips; i++ {
		pos := inj.rng.Intn(len(buf))
		buf[pos] ^= byte(1 + inj.rng.Intn(255))
	}
	f.Payload = buf
	f.Corrupted = true
	n.stats.Corrupted++
	inj.logf(n, "corrupt %v->%v flip %d/%dB", f.Src, to, flips, len(buf))
}

// logf appends one timestamped line to the firing log. Callers either hold
// the network mutex or run on the clock goroutine from a plan event; plan
// events take the mutex here.
func (inj *Injector) logf(n *Network, format string, args ...any) {
	line := fmt.Sprintf("t=%v ", n.clock.Now().Sub(inj.epoch)) + fmt.Sprintf(format, args...)
	inj.log = append(inj.log, line)
}

// Log returns a copy of the firing log: one line per plan event fired and
// per frame-level fault injected, in deterministic order.
func (inj *Injector) Log() []string {
	return append([]string(nil), inj.log...)
}

// savedLink is one directed link remembered for later restoration.
type savedLink struct {
	from, to mnet.Addr
	q        Quality
}

// cutAcross removes every directed link crossing between distinct groups
// and returns the removed links.
func cutAcross(n *Network, groups [][]mnet.Addr) []savedLink {
	group := make(map[mnet.Addr]int)
	for i, g := range groups {
		for _, a := range g {
			group[a] = i
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var saved []savedLink
	for k, q := range n.links {
		gi, iok := group[k.from]
		gj, jok := group[k.to]
		if iok && jok && gi != gj {
			saved = append(saved, savedLink{k.from, k.to, q})
		}
	}
	sort.Slice(saved, func(i, j int) bool {
		if saved[i].from != saved[j].from {
			return saved[i].from.Less(saved[j].from)
		}
		return saved[i].to.Less(saved[j].to)
	})
	for _, s := range saved {
		delete(n.links, linkKey{s.from, s.to})
		n.removeAdjLocked(s.from, s.to)
	}
	return saved
}

// linksOf returns every directed link touching addr, sorted.
func linksOf(n *Network, addr mnet.Addr) []savedLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	var saved []savedLink
	for k, q := range n.links {
		if k.from == addr || k.to == addr {
			saved = append(saved, savedLink{k.from, k.to, q})
		}
	}
	sort.Slice(saved, func(i, j int) bool {
		if saved[i].from != saved[j].from {
			return saved[i].from.Less(saved[j].from)
		}
		return saved[i].to.Less(saved[j].to)
	})
	return saved
}

// restoreLinks re-installs saved links, skipping endpoints that have left
// the network meanwhile. It returns the number restored.
func restoreLinks(n *Network, saved []savedLink) int {
	restored := 0
	for _, s := range saved {
		if err := n.SetDirectedLink(s.from, s.to, s.q); err == nil {
			restored++
		}
	}
	return restored
}

func describeGroups(groups [][]mnet.Addr) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		elems := make([]string, len(g))
		for j, a := range g {
			elems[j] = a.String()
		}
		parts[i] = "{" + strings.Join(elems, ",") + "}"
	}
	return strings.Join(parts, "|")
}
