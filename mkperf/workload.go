package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"manetkit"
	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/system"
)

// epoch anchors every episode's virtual clock, so virtual timestamps (and
// with them every delivery latency) repeat exactly across runs.
var epoch = time.Date(2009, 11, 30, 0, 0, 0, 0, time.UTC)

// spec sizes one workload. The benchmark's workloads are fixed specs; the
// tests shrink them to smoke size.
type spec struct {
	name string
	cols int // square grid of cols×cols nodes
	loss float64

	// window is the virtual time the timed drive advances the clock by.
	window time.Duration

	// Data traffic: flows CBR flows of `hops` grid hops at `rate` packets
	// per second, sending inside the windows the workload defines.
	flows int
	hops  int
	rate  int
	sizes []int // payload sizes, assigned round-robin over the flows

	// olsr-grid and dymo-data: the protocol family deployed at set-up, and
	// the family every node is switched to after the drive.
	family, tailFamily string

	// switch: phase length and the number of olsr→dymo→aodv→zrp→olsr
	// cycles the policy loop runs.
	phase  time.Duration
	cycles int
}

// The three benchmark workloads.
var specs = map[string]spec{
	"olsr-grid": {
		name: "olsr-grid", cols: 12, loss: 0.01, window: 20 * time.Second,
		family: "olsr", tailFamily: "dymo",
	},
	"dymo-data": {
		name: "dymo-data", cols: 32, window: 9 * time.Second,
		flows: 48, hops: 5, rate: 50, sizes: []int{32, 1024},
		family: "dymo", tailFamily: "aodv",
	},
	"switch": {
		name: "switch", cols: 10, phase: 10 * time.Second, cycles: 1,
		flows: 8, hops: 4, rate: 10, sizes: []int{64},
	},
}

// cycle is the order the switch workload's policy loop walks the families.
var cycle = []string{"olsr", "dymo", "aodv", "zrp"}

// Traffic windows, relative to the start of the drive.
const (
	dataWarmup = 3 * time.Second // dymo-data: neighbour sensing before traffic
	dataDrain  = time.Second     // every workload: quiet tail before a window ends
)

// settle is how long after a switch the switch workload waits before
// probing a family: proactive families need their HELLO/TC rounds, reactive
// ones only their neighbour sensing.
var settle = map[string]time.Duration{
	"olsr": 7 * time.Second,
	"dymo": 3 * time.Second,
	"aodv": 3 * time.Second,
	"zrp":  5 * time.Second,
}

// episode is everything one set-up + drive of a workload measured.
type episode struct {
	nodes   int
	virtual time.Duration

	setupStacks, setupLinks, setupDeploy time.Duration
	drive                                time.Duration

	mallocs, allocBytes uint64 // over the drive
	liveHeap            int64  // bytes still live after a forced GC, net of the pre-set-up heap
	gcCycles            uint32

	net    emunet.Stats
	sys    system.Stats
	mgr    core.ManagerStats
	fibOps uint64

	// Operations: route lookups (olsr-grid), originated packets and
	// reconfiguration calls (dymo-data, switch).
	attempted, failed int
	// wrong counts incorrect outputs: a route with a wrong next hop or
	// metric, a delivery nobody sent, a duplicate delivery.
	wrong int

	switches, deploys, undeploys, toggles []time.Duration

	delivered   int
	latP50      time.Duration
	latP99      time.Duration
	routes      int // olsr-grid: routes present at the end of the drive
	stretched   int // olsr-grid: routes longer than the grid distance
	unreachable int // olsr-grid: routes whose next-hop chain loops or dead-ends
	digest      string
}

func (e *episode) setup() time.Duration { return e.setupStacks + e.setupLinks + e.setupDeploy }

// hooks are the traced run's instruments: capture control frames, and wrap
// the drive in a profile.
type hooks struct {
	capture *capture
	around  func(run func())
}

// world is one episode's emulated network.
type world struct {
	sp     spec
	clk    *manetkit.VirtualClock
	net    *manetkit.Network
	addrs  []manetkit.Addr
	stacks []*manetkit.Stack
	family []string // per node
	tr     *traffic
	ep     *episode
}

func (w *world) coord(i int) (r, c int) { return i / w.sp.cols, i % w.sp.cols }

func (w *world) hopsBetween(i, j int) int {
	ri, ci := w.coord(i)
	rj, cj := w.coord(j)
	return abs(ri-rj) + abs(ci-cj)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runEpisode builds the workload's network from seed, drives it, checks
// its outputs and tears it down.
func runEpisode(sp spec, seed int64, h hooks) (*episode, error) {
	runtime.GC()
	heap0 := heapAlloc()

	ep := &episode{nodes: sp.cols * sp.cols}
	w := &world{sp: sp, ep: ep}
	defer func() {
		for _, s := range w.stacks {
			s.Close()
		}
	}()
	if err := w.build(seed, h); err != nil {
		return nil, err
	}

	runtime.GC()
	fib0 := w.fibOps()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	drive := func() {
		if sp.name == "switch" {
			w.driveSwitch()
		} else {
			w.clk.Advance(sp.window)
		}
	}
	if h.around != nil {
		h.around(drive)
	} else {
		drive()
	}
	ep.drive = time.Since(start)
	runtime.ReadMemStats(&m1)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ep.gcCycles = m1.NumGC - m0.NumGC
	ep.virtual = w.clk.Now().Sub(epoch)
	runtime.GC()
	ep.liveHeap = int64(heapAlloc()) - int64(heap0)
	ep.fibOps = w.fibOps() - fib0

	w.collect()
	if sp.tailFamily != "" {
		if v, ok := variants[sp.family]; ok {
			w.toggleAll(v.on)
			w.toggleAll(v.off)
		}
		w.switchAll(sp.tailFamily)
	}
	ep.digest = w.digest()
	return ep, nil
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// build is the timed set-up: stacks, links, deployments and the traffic
// schedule.
func (w *world) build(seed int64, h hooks) error {
	sp, ep := w.sp, w.ep
	rng := rand.New(rand.NewSource(seed))

	t0 := time.Now()
	w.clk = manetkit.NewVirtualClock(epoch)
	w.net = manetkit.NewNetwork(w.clk, seed)
	w.addrs = manetkit.Addrs(ep.nodes)
	stacks, err := manetkit.NewStacks(w.net, w.addrs, manetkit.StackOptions{})
	if err != nil {
		return err
	}
	w.stacks = stacks
	t1 := time.Now()
	q := manetkit.DefaultQuality()
	q.Loss = sp.loss
	if err := manetkit.BuildGrid(w.net, w.addrs, sp.cols, q); err != nil {
		return err
	}
	t2 := time.Now()
	first := sp.family
	if sp.name == "switch" {
		first = cycle[0]
	}
	w.family = make([]string, ep.nodes)
	for i, s := range w.stacks {
		if err := deploy(s, first); err != nil {
			return fmt.Errorf("deploy %s on %s: %w", first, s.Addr(), err)
		}
		w.family[i] = first
	}
	if h.capture != nil {
		w.net.SetTxTap(h.capture.tap)
	}
	w.tr = newTraffic(w, rng)
	ep.setupStacks, ep.setupLinks, ep.setupDeploy = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return nil
}

func (w *world) fibOps() uint64 {
	var n uint64
	for _, s := range w.stacks {
		n += s.System().FIB().Ops()
	}
	return n
}

// collect sums the layers' counters and checks the outputs.
func (w *world) collect() {
	ep := w.ep
	ep.net = w.net.Stats()
	for _, s := range w.stacks {
		st := s.System().Stats()
		ep.sys.CtrlSent += st.CtrlSent
		ep.sys.CtrlReceived += st.CtrlReceived
		ep.sys.DataSent += st.DataSent
		ep.sys.DataForwarded += st.DataForwarded
		ep.sys.DataDelivered += st.DataDelivered
		ep.sys.DataBuffered += st.DataBuffered
		ep.sys.DataDropped += st.DataDropped
		ep.sys.DecodeErrors += st.DecodeErrors
		ms := s.Manager().Stats()
		ep.mgr.Emitted += ms.Emitted
		ep.mgr.Delivered += ms.Delivered
		ep.mgr.Dropped += ms.Dropped
		ep.mgr.Rewires += ms.Rewires
	}
	if w.sp.name == "olsr-grid" {
		w.checkRoutes()
	}
	w.tr.finish()
}

// checkRoutes is olsr-grid's output check. Every (node, destination)
// lookup is an operation and a missing route a failure. A route is wrong
// when its next hop is not a grid neighbour or it claims fewer hops than
// the grid distance. Longer-than-shortest routes, and routes whose next-hop
// chain loops or dead-ends, can be transient under loss; they are counted
// into the digest.
func (w *world) checkRoutes() {
	ep := w.ep
	for i, s := range w.stacks {
		fib := s.System().FIB()
		for j, dst := range w.addrs {
			if i == j {
				continue
			}
			ep.attempted++
			r, ok := fib.Lookup(dst)
			if !ok {
				ep.failed++
				continue
			}
			ep.routes++
			nh := w.index(r.NextHop)
			switch {
			case nh < 0 || w.hopsBetween(i, nh) != 1 || r.Metric < w.hopsBetween(i, j):
				ep.wrong++
			case r.Metric > w.hopsBetween(i, j):
				ep.stretched++
			}
			if !w.reaches(i, j) {
				ep.unreachable++
			}
		}
	}
}

// reaches follows FIB next hops from node i towards node j, at most one hop
// per node.
func (w *world) reaches(i, j int) bool {
	dst := w.addrs[j]
	for hop := 0; hop < len(w.stacks); hop++ {
		r, ok := w.stacks[i].System().FIB().Lookup(dst)
		if !ok {
			return false
		}
		i = w.index(r.NextHop)
		if i < 0 {
			return false
		}
		if i == j {
			return true
		}
	}
	return false
}

// index maps a grid address back to its node index (Addrs are sequential).
func (w *world) index(a manetkit.Addr) int {
	first := w.addrs[0]
	i := int(binary.BigEndian.Uint32(a[:])) - int(binary.BigEndian.Uint32(first[:]))
	if i < 0 || i >= len(w.addrs) {
		return -1
	}
	return i
}

// digest renders the episode's simulated outcome. Everything in it runs on
// the virtual clock from seeded inputs, so it repeats exactly for a seed.
func (w *world) digest() string {
	ep := w.ep
	return fmt.Sprintf("%s n=%d virt=%s tx=%d rx=%d loss=%d nolink=%d ctrl=%d/%d data=%d/%d/%d/%d dropped=%d delivered=%d lat50=%s lat99=%s routes=%d stretched=%d unreachable=%d",
		w.sp.name, ep.nodes, ep.virtual, ep.net.TxFrames, ep.net.RxFrames, ep.net.DroppedLoss, ep.net.DroppedNoLink,
		ep.sys.CtrlSent, ep.sys.CtrlReceived, ep.sys.DataSent, ep.sys.DataForwarded, ep.sys.DataBuffered, ep.sys.DataDelivered,
		ep.sys.DataDropped, ep.delivered, ep.latP50, ep.latP99, ep.routes, ep.stretched, ep.unreachable)
}

// deploy installs one protocol family on a stack.
func deploy(s *manetkit.Stack, family string) error {
	var err error
	switch family {
	case "olsr":
		_, err = s.DeployOLSR(manetkit.OLSRConfig{})
	case "dymo":
		_, err = s.DeployDYMO(manetkit.DYMOConfig{})
	case "aodv":
		_, err = s.DeployAODV(manetkit.AODVConfig{})
	case "zrp":
		_, err = s.DeployZRP(manetkit.ZRPConfig{})
	default:
		err = fmt.Errorf("unknown family %q", family)
	}
	return err
}

// undeploy removes one protocol family's units from a stack.
func undeploy(s *manetkit.Stack, family string) error {
	switch family {
	case "olsr":
		if err := s.UndeployOLSR(); err != nil {
			return err
		}
		return s.UndeployMPR()
	case "dymo":
		return s.UndeployDYMO()
	case "aodv":
		return s.UndeployAODV()
	case "zrp":
		if err := s.UndeployZRP(); err != nil {
			return err
		}
		return s.UndeployMPR()
	}
	return fmt.Errorf("unknown family %q", family)
}

// switchAll moves every node to family, timing each node's switch
// (undeploy the current family, deploy the next). Every call is an
// operation; a returned error is a failure.
func (w *world) switchAll(family string) {
	ep := w.ep
	for i, s := range w.stacks {
		from := w.family[i]
		t0 := time.Now()
		ep.attempted++
		errU := undeploy(s, from)
		t1 := time.Now()
		ep.attempted++
		errD := deploy(s, family)
		t2 := time.Now()
		if errU != nil {
			ep.failed++
		}
		if errD != nil {
			ep.failed++
		}
		ep.undeploys = append(ep.undeploys, t1.Sub(t0))
		ep.deploys = append(ep.deploys, t2.Sub(t1))
		ep.switches = append(ep.switches, t2.Sub(t0))
		w.family[i] = family
	}
}

// toggleAll applies a fine-grained variant on every node, timing each call.
func (w *world) toggleAll(apply func(s *manetkit.Stack) error) {
	ep := w.ep
	for _, s := range w.stacks {
		t0 := time.Now()
		err := apply(s)
		ep.toggles = append(ep.toggles, time.Since(t0))
		ep.attempted++
		if err != nil {
			ep.failed++
		}
	}
}

// variant is one family's fine-grained variant: the calls that turn it on
// and off, and how long the switch workload leaves it on.
type variant struct {
	on, off func(s *manetkit.Stack) error
	hold    time.Duration
}

// variants are the toggled variants: OLSR fisheye and DYMO multipath.
var variants = map[string]variant{
	"olsr": {
		on:   func(s *manetkit.Stack) error { return s.EnableFisheye(nil) },
		off:  func(s *manetkit.Stack) error { return s.DisableFisheye() },
		hold: 2 * time.Second,
	},
	"dymo": {
		on:   func(s *manetkit.Stack) error { return s.DYMOUnit().EnableMultipath(2) },
		off:  func(s *manetkit.Stack) error { return s.DYMOUnit().DisableMultipath() },
		hold: 5 * time.Second,
	},
}

// variantStart is when, after a switch, the switch workload turns the new
// family's variant on.
const variantStart = time.Second

// driveSwitch is the switch workload's policy loop: each phase runs one
// family with its variant toggled on and off mid-phase, then every node
// moves to the next family in the cycle.
func (w *world) driveSwitch() {
	sp := w.sp
	phases := sp.cycles*len(cycle) + 1
	for p := 0; p < phases; p++ {
		if v, ok := variants[cycle[p%len(cycle)]]; ok {
			w.clk.Advance(variantStart)
			w.toggleAll(v.on)
			w.clk.Advance(v.hold)
			w.toggleAll(v.off)
			w.clk.Advance(sp.phase - variantStart - v.hold)
		} else {
			w.clk.Advance(sp.phase)
		}
		if p < phases-1 {
			w.switchAll(cycle[(p+1)%len(cycle)])
		}
	}
}

// window is a virtual-time span, relative to the drive's start, in which
// flows send.
type window struct{ from, to time.Duration }

func (w *world) windows() []window {
	sp := w.sp
	if sp.name != "switch" {
		return []window{{dataWarmup, sp.window - dataDrain}}
	}
	var ws []window
	for p := 0; p < sp.cycles*len(cycle)+1; p++ {
		start := time.Duration(p) * sp.phase
		ws = append(ws, window{start + settle[cycle[p%len(cycle)]], start + sp.phase - dataDrain})
	}
	return ws
}

// flow is one CBR flow; sent[k] is the virtual send time of its packet k.
type flow struct {
	src, dst int
	buf      []byte
	sent     []time.Time
	got      []bool
}

// traffic drives the workload's CBR flows and joins every delivery to its
// send time. Payloads carry (flow, sequence) in their first 8 bytes.
type traffic struct {
	w       *world
	flows   []*flow
	lat     []time.Duration
	unknown int
}

func newTraffic(w *world, rng *rand.Rand) *traffic {
	tr := &traffic{w: w}
	sp := w.sp
	if sp.flows == 0 {
		return tr
	}
	for i := range w.stacks {
		w.stacks[i].OnDeliver(tr.deliver)
	}
	interval := time.Second / time.Duration(sp.rate)
	wins := w.windows()
	for f := 0; f < sp.flows; f++ {
		src, dst := w.pickPair(rng, sp.hops)
		fl := &flow{src: src, dst: dst, buf: make([]byte, sp.sizes[f%len(sp.sizes)])}
		tr.flows = append(tr.flows, fl)
		offset := time.Duration(rng.Int63n(int64(interval)))
		id := uint32(f)
		for _, win := range wins {
			for at := win.from + offset; at < win.to; at += interval {
				w.clk.AfterFunc(at, func() { tr.send(id, fl) })
			}
		}
	}
	return tr
}

// pickPair draws a source and a destination exactly hops grid hops apart.
func (w *world) pickPair(rng *rand.Rand, hops int) (int, int) {
	n := w.sp.cols
	for {
		src := rng.Intn(n * n)
		dr := rng.Intn(hops + 1)
		dc := hops - dr
		if rng.Intn(2) == 0 {
			dr = -dr
		}
		if rng.Intn(2) == 0 {
			dc = -dc
		}
		r, c := w.coord(src)
		if r+dr < 0 || r+dr >= n || c+dc < 0 || c+dc >= n {
			continue
		}
		return src, (r+dr)*n + c + dc
	}
}

func (tr *traffic) send(id uint32, fl *flow) {
	seq := uint32(len(fl.sent))
	binary.BigEndian.PutUint32(fl.buf[0:4], id)
	binary.BigEndian.PutUint32(fl.buf[4:8], seq)
	fl.sent = append(fl.sent, tr.w.clk.Now())
	fl.got = append(fl.got, false)
	ep := tr.w.ep
	ep.attempted++
	if err := tr.w.stacks[fl.src].SendData(tr.w.addrs[fl.dst], fl.buf); err != nil {
		fl.got[seq] = true // refused at the source: failed now, not again in finish
		ep.failed++
	}
}

func (tr *traffic) deliver(src manetkit.Addr, payload []byte) {
	if len(payload) < 8 {
		tr.unknown++
		return
	}
	id := binary.BigEndian.Uint32(payload[0:4])
	seq := binary.BigEndian.Uint32(payload[4:8])
	if int(id) >= len(tr.flows) {
		tr.unknown++
		return
	}
	fl := tr.flows[id]
	if int(seq) >= len(fl.sent) || fl.got[seq] || tr.w.addrs[fl.src] != src {
		tr.unknown++
		return
	}
	fl.got[seq] = true
	tr.lat = append(tr.lat, tr.w.clk.Now().Sub(fl.sent[seq]))
}

// finish counts undelivered packets as failures and summarises latency.
func (tr *traffic) finish() {
	ep := tr.w.ep
	for _, fl := range tr.flows {
		for _, got := range fl.got {
			if !got {
				ep.failed++
			}
		}
	}
	ep.wrong += tr.unknown
	ep.delivered = len(tr.lat)
	sort.Slice(tr.lat, func(i, j int) bool { return tr.lat[i] < tr.lat[j] })
	ep.latP50 = quantileDur(tr.lat, 0.50)
	ep.latP99 = quantileDur(tr.lat, 0.99)
}
