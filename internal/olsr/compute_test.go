package olsr

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

type hopRef struct {
	nextHop mnet.Addr
	metric  int
}

// referenceRoutes is the pre-index shortest-path calculation — the
// O(E×diameter) fixpoint relaxation ComputeRoutes replaced — kept here as
// the differential-test oracle. The only addition over the historical code
// is the equal-metric tie-break towards the smaller next hop, which is the
// canonical solution the BFS min-merge converges to; metrics and the
// reachable set are exactly the historical ones.
func referenceRoutes(s *State, self mnet.Addr, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr, now time.Time) map[mnet.Addr]hopRef {
	best := make(map[mnet.Addr]hopRef)
	for _, nb := range oneHop {
		best[nb] = hopRef{nextHop: nb, metric: 1}
	}
	for dst, vias := range twoHop {
		if _, ok := best[dst]; ok || len(vias) == 0 {
			continue
		}
		best[dst] = hopRef{nextHop: vias[0], metric: 2}
	}
	edges := s.Edges(now)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			last, dest := e[0], e[1]
			if dest == self {
				continue
			}
			le, ok := best[last]
			if !ok {
				continue
			}
			cand := hopRef{nextHop: le.nextHop, metric: le.metric + 1}
			cur, ok := best[dest]
			if !ok || cand.metric < cur.metric ||
				(cand.metric == cur.metric && cand.nextHop.Less(cur.nextHop)) {
				best[dest] = cand
				changed = true
			}
		}
	}
	return best
}

// modelTopo is a naive flat tuple set mirroring the semantics the
// per-originator index must preserve: ANSN gating, fresher-ANSN flush,
// per-tuple expiry.
type modelTopo struct {
	tuples map[[2]mnet.Addr]time.Time
	ansn   map[mnet.Addr]uint16
}

func newModelTopo() *modelTopo {
	return &modelTopo{tuples: make(map[[2]mnet.Addr]time.Time), ansn: make(map[mnet.Addr]uint16)}
}

func (m *modelTopo) recordTC(orig mnet.Addr, ansn uint16, advertised []mnet.Addr, expiry time.Time) {
	if prev, ok := m.ansn[orig]; ok && seqOlder(ansn, prev) {
		return
	}
	if prev, ok := m.ansn[orig]; !ok || seqOlder(prev, ansn) {
		for e := range m.tuples {
			if e[0] == orig {
				delete(m.tuples, e)
			}
		}
	}
	m.ansn[orig] = ansn
	for _, d := range advertised {
		if d == orig {
			continue
		}
		m.tuples[[2]mnet.Addr{orig, d}] = expiry
	}
}

func (m *modelTopo) purge(now time.Time) {
	for e, exp := range m.tuples {
		if !exp.After(now) {
			delete(m.tuples, e)
		}
	}
}

func (m *modelTopo) edges(now time.Time) [][2]mnet.Addr {
	out := make([][2]mnet.Addr, 0, len(m.tuples))
	for e, exp := range m.tuples {
		if exp.After(now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0].Less(out[j][0])
		}
		return out[i][1].Less(out[j][1])
	})
	return out
}

func nodeAddr(i int) mnet.Addr {
	return mnet.AddrFrom(0x0a000001 + uint32(i))
}

// TestComputeRoutesMatchesReference drives the indexed BFS and the fixpoint
// oracle over randomized topology histories — stale-ANSN interleavings,
// self-loop advertisements, expiry purges, disconnected components — and
// requires the per-originator index to match a naive flat tuple model and
// the installed route table to match the oracle exactly.
func TestComputeRoutesMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		clk := vclock.NewVirtual(testbed.Epoch)
		s := NewState(route.NewTable(clk))
		model := newModelTopo()
		n := 4 + rng.Intn(12)
		self := nodeAddr(0)

		randomCompute := func() {
			// Random neighbourhood inputs: a sorted symmetric set (never
			// self) and a 2-hop map with sorted vias.
			var oneHop []mnet.Addr
			for i := 1; i < n; i++ {
				if rng.Intn(3) == 0 {
					oneHop = append(oneHop, nodeAddr(i))
				}
			}
			twoHop := make(map[mnet.Addr][]mnet.Addr)
			for i := 1; i < n; i++ {
				if rng.Intn(4) != 0 {
					continue
				}
				var vias []mnet.Addr
				for v := 1; v < n; v++ {
					if rng.Intn(5) == 0 {
						vias = append(vias, nodeAddr(v))
					}
				}
				twoHop[nodeAddr(i)] = vias // sometimes empty: must be skipped
			}
			now := clk.Now()
			got := s.ComputeRoutes(self, oneHop, twoHop, now, time.Minute, "olsr")
			want := referenceRoutes(s, self, oneHop, twoHop, now)
			if got != len(want) {
				t.Fatalf("trial %d: ComputeRoutes = %d destinations, reference = %d", trial, got, len(want))
			}
			entries := s.Routes.Entries()
			if len(entries) != len(want) {
				t.Fatalf("trial %d: table has %d entries, reference %d", trial, len(entries), len(want))
			}
			for _, e := range entries {
				ref, ok := want[e.Dst.Addr]
				if !ok {
					t.Fatalf("trial %d: table has unexpected destination %v", trial, e.Dst)
				}
				if !e.Valid || e.Proto != "olsr" || len(e.Paths) != 1 {
					t.Fatalf("trial %d: malformed entry %+v", trial, e)
				}
				if e.Paths[0].NextHop != ref.nextHop || e.Paths[0].Metric != ref.metric {
					t.Fatalf("trial %d: route to %v = via %v metric %d, reference via %v metric %d",
						trial, e.Dst.Addr, e.Paths[0].NextHop, e.Paths[0].Metric, ref.nextHop, ref.metric)
				}
			}
		}

		ops := 10 + rng.Intn(40)
		for op := 0; op < ops; op++ {
			switch rng.Intn(12) {
			case 0:
				now := clk.Now()
				if s.PurgeTopo(now) != (func() bool { before := len(model.tuples); model.purge(now); return len(model.tuples) != before })() {
					t.Fatalf("trial %d: PurgeTopo changed-report diverges from model", trial)
				}
			case 1:
				clk.Advance(time.Duration(1+rng.Intn(3)) * time.Second)
			case 2:
				randomCompute() // interleaved: exercises diff-install removal
			default:
				orig := nodeAddr(rng.Intn(n))
				ansn := uint16(rng.Intn(8)) // small range forces stale interleavings
				adv := make([]mnet.Addr, 0, 6)
				if rng.Intn(4) == 0 {
					adv = append(adv, orig) // self-loop: must be ignored
				}
				for k := rng.Intn(5); k > 0; k-- {
					adv = append(adv, nodeAddr(rng.Intn(n)))
				}
				expiry := clk.Now().Add(time.Duration(1+rng.Intn(5)) * time.Second)
				s.RecordTC(orig, ansn, advertise(adv...), expiry)
				model.recordTC(orig, ansn, adv, expiry)
			}
			gotE, wantE := s.Edges(clk.Now()), model.edges(clk.Now())
			if len(gotE) != len(wantE) {
				t.Fatalf("trial %d op %d: index has %d edges, model %d", trial, op, len(gotE), len(wantE))
			}
			for i := range gotE {
				if gotE[i] != wantE[i] {
					t.Fatalf("trial %d op %d: edge[%d] = %v, model %v", trial, op, i, gotE[i], wantE[i])
				}
			}
		}
		randomCompute()
	}
}

// TestComputeRoutesCanonicalTieBreak pins the equal-cost rule: when a
// destination is reachable over several shortest paths, the installed next
// hop is the lexicographically smallest one.
func TestComputeRoutesCanonicalTieBreak(t *testing.T) {
	s, clk := newState()
	self := addr("10.0.0.1")
	a, b, d := addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.9")
	exp := clk.Now().Add(time.Minute)
	// Diamond: both neighbours advertise d — two equal-cost 2-hop paths.
	s.RecordTC(b, 1, advertise(d), exp) // deliberately record the larger hop first
	s.RecordTC(a, 1, advertise(d), exp)
	s.ComputeRoutes(self, []mnet.Addr{a, b}, nil, clk.Now(), time.Minute, "olsr")
	e, ok := s.Routes.Get(mnet.HostPrefix(d))
	if !ok || e.Paths[0].NextHop != a || e.Paths[0].Metric != 2 {
		t.Fatalf("diamond route = %+v, want via %v metric 2", e, a)
	}
}

// TestComputeRoutesInstallsHNA pins the folded gateway install: learned
// prefixes route like their gateway one hop beyond it, expire with the
// association, and vanish while the gateway is unreachable.
func TestComputeRoutesInstallsHNA(t *testing.T) {
	s, clk := newState()
	self := addr("10.0.0.1")
	nb, gw := addr("10.0.0.2"), addr("10.0.0.5")
	p := mnet.Prefix{Addr: addr("192.168.7.0"), Bits: 24}
	exp := clk.Now().Add(time.Minute)
	s.RecordTC(nb, 1, advertise(gw), exp)
	s.hna = map[mnet.Prefix]hnaEntry{p: {gateway: gw, expires: exp}}

	s.ComputeRoutes(self, []mnet.Addr{nb}, nil, clk.Now(), time.Minute, "olsr")
	e, ok := s.Routes.Get(p)
	if !ok || e.Paths[0].NextHop != nb || e.Paths[0].Metric != 3 {
		t.Fatalf("HNA route = %+v (ok=%v), want via %v metric 3", e, ok, nb)
	}
	if !e.Paths[0].Expires.Equal(exp) {
		t.Fatalf("HNA route expires %v, want association expiry %v", e.Paths[0].Expires, exp)
	}

	// Gateway unreachable: the prefix route must drop out of the next pass.
	s.ComputeRoutes(self, nil, nil, clk.Now(), time.Minute, "olsr")
	if _, ok := s.Routes.Get(p); ok {
		t.Fatal("HNA route survived an unreachable gateway")
	}
}

// buildRing records a 4-regular ring topology of n originators (4n tuples)
// so benchmark sizes scale by edge count while staying fully connected.
func buildRing(s *State, n int, expiry time.Time) {
	for i := 0; i < n; i++ {
		adv := []mnet.Addr{
			nodeAddr((i + 1) % n),
			nodeAddr((i + 2) % n),
			nodeAddr((i - 1 + n) % n),
			nodeAddr((i - 2 + n) % n),
		}
		s.RecordTC(nodeAddr(i), 1, advertise(adv...), expiry)
	}
}

// TestComputeRoutesSteadyStateAllocs pins the acceptance criterion: a
// steady-state recompute at 1000 topology edges performs at most 2
// allocations (measured: 0 — scratch buffers and the diff install are
// warm after the first two passes).
func TestComputeRoutesSteadyStateAllocs(t *testing.T) {
	s, clk := newState()
	n := 250 // 4n = 1000 topology tuples
	buildRing(s, n, clk.Now().Add(time.Hour))
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
	twoHop := map[mnet.Addr][]mnet.Addr{
		nodeAddr(2):     {nodeAddr(1)},
		nodeAddr(n - 2): {nodeAddr(n - 1)},
	}
	now := clk.Now()
	s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	allocs := testing.AllocsPerRun(20, func() {
		s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	})
	if allocs > 2 {
		t.Fatalf("steady-state ComputeRoutes at 1000 edges allocates %.1f times per run, want <= 2", allocs)
	}
}

func BenchmarkComputeRoutes(b *testing.B) {
	for _, edges := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			s, clk := newState()
			n := edges / 4
			buildRing(s, n, clk.Now().Add(time.Hour))
			self := nodeAddr(0)
			oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
			twoHop := map[mnet.Addr][]mnet.Addr{
				nodeAddr(2):     {nodeAddr(1)},
				nodeAddr(n - 2): {nodeAddr(n - 1)},
			}
			now := clk.Now()
			s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
			}
		})
	}
}
