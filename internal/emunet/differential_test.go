package emunet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/trace"
	"manetkit/internal/vclock"
)

// The differential suite pits the legacy timer-per-delivery path against
// the discrete-event core on identical seeds and asserts the two are
// observably indistinguishable: same frame-level span stream, same receive
// upcall sequence, same Stats, same fault firing log. This is the contract
// that lets every golden gate in the repo keep its committed values across
// the engine swap.

// newMedium constructs a medium on one of the two compared paths: newLegacy
// (the reference) or New (the event core).
type newMedium func(vclock.Clock, int64) *Network

// chaosObservables runs the seed-7 chaos scenario (the TestGoldenFrameTrace
// workload: lossy line, partition+crash+corrupt+duplicate+reorder plan,
// scripted beacons and unicasts) on the given engine and returns everything
// a protocol or test could observe.
func chaosObservables(t *testing.T, seed int64, mk newMedium) (Stats, []string, []string, []trace.Span, string) {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := mk(clk, seed)
	tr := trace.New(epoch, 0)
	net.SetTracer(tr)
	addrs := Addrs(4)
	q := DefaultQuality()
	q.Loss = 0.2
	if err := BuildLine(net, addrs, q); err != nil {
		t.Fatalf("BuildLine: %v", err)
	}

	var rxLog []string
	for _, a := range addrs {
		a := a
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) {
			rxLog = append(rxLog, fmt.Sprintf("t=%v %v->%v rx %x corrupted=%v",
				clk.Now().Sub(epoch), f.Src, a, f.Payload, f.Corrupted))
		})
	}

	plan := NewFaultPlan(seed+100).
		Partition(300*time.Millisecond, 600*time.Millisecond, addrs[:2], addrs[2:]).
		Crash(700*time.Millisecond, 900*time.Millisecond, addrs[1]).
		CorruptFrames(0, time.Second, 0.3).
		DuplicateFrames(0, time.Second, 0.3).
		ReorderFrames(0, time.Second, 0.3, 3*time.Millisecond)
	inj := plan.Apply(net)

	for i, a := range addrs {
		a := a
		next := addrs[(i+1)%len(addrs)]
		for k := 0; k < 20; k++ {
			k := k
			clk.AfterFunc(time.Duration(k)*50*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("beacon %v %d", a, k)))
				_ = nic.Send(next, []byte(fmt.Sprintf("uni %v %d", a, k)))
			})
		}
	}
	clk.Advance(1200 * time.Millisecond)
	return net.Stats(), inj.Log(), rxLog, tr.Spans(), tr.Fingerprint()
}

// diffSpans reports the first span where two streams diverge.
func diffSpans(t *testing.T, name string, want, got []trace.Span) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Errorf("%s: span %d diverged:\n legacy %+v\n %s %+v", name, i, want[i], name, got[i])
			return
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: span count %d, legacy %d; first extra span %+v",
			name, len(got), len(want), longer(want, got)[n])
	}
}

func longer(a, b []trace.Span) []trace.Span {
	if len(a) > len(b) {
		return a
	}
	return b
}

// diffRx reports the first receive where two upcall logs diverge.
func diffRx(t *testing.T, name string, want, got []string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Errorf("%s: receive %d diverged:\n legacy %q\n event  %q",
				name, i, want[min(i, len(want)-1)], got[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d receives, legacy %d", name, len(got), len(want))
	}
}

// TestDifferentialChaos asserts that the event core reproduces the legacy
// path's observable behaviour bit-for-bit on the chaos workload, across
// several seeds.
func TestDifferentialChaos(t *testing.T) {
	for _, seed := range []int64{7, 8, 41} {
		refStats, refLog, refRx, refSpans, refFP := chaosObservables(t, seed, newLegacy)
		stats, log, rx, spans, fp := chaosObservables(t, seed, New)
		name := fmt.Sprintf("seed %d", seed)
		if stats != refStats {
			t.Errorf("%s: Stats diverged:\n legacy %+v\n event  %+v", name, refStats, stats)
		}
		if !reflect.DeepEqual(log, refLog) {
			t.Errorf("%s: fault firing logs diverged:\n legacy %q\n event  %q", name, refLog, log)
		}
		diffRx(t, name, refRx, rx)
		if fp != refFP {
			diffSpans(t, name, refSpans, spans)
		}
	}
}

// TestDifferentialFeedback covers the MAC-feedback (802.11 ACK analogue)
// path: delivery verdicts and their order must match across engines, for
// linked, lossy, missing-link and mid-flight-crash cases.
func TestDifferentialFeedback(t *testing.T) {
	run := func(mk newMedium) []string {
		epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		clk := vclock.NewVirtual(epoch)
		net := mk(clk, 5)
		addrs := Addrs(3)
		for _, a := range addrs {
			if _, err := net.Attach(a); err != nil {
				t.Fatalf("Attach: %v", err)
			}
		}
		lossy := DefaultQuality()
		lossy.Loss = 0.5
		if err := net.SetLink(addrs[0], addrs[1], lossy); err != nil {
			t.Fatalf("SetLink: %v", err)
		}
		if err := net.SetLink(addrs[1], addrs[2], DefaultQuality()); err != nil {
			t.Fatalf("SetLink: %v", err)
		}

		var verdicts []string
		nic0, _ := net.NIC(addrs[0])
		nic1, _ := net.NIC(addrs[1])
		for k := 0; k < 20; k++ {
			k := k
			clk.AfterFunc(time.Duration(k)*10*time.Millisecond, func() {
				_ = nic0.SendWithFeedback(addrs[1], []byte(fmt.Sprintf("ack me %d", k)), func(ok bool) {
					verdicts = append(verdicts, fmt.Sprintf("t=%v 0->1 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
				})
				_ = nic1.SendWithFeedback(addrs[2], []byte(fmt.Sprintf("fwd %d", k)), func(ok bool) {
					verdicts = append(verdicts, fmt.Sprintf("t=%v 1->2 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
				})
				// No link 0->2: the frame is lost and the MAC reports failure.
				_ = nic0.SendWithFeedback(addrs[2], []byte("void"), func(ok bool) {
					verdicts = append(verdicts, fmt.Sprintf("t=%v 0->2 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
				})
			})
		}
		// Crash the middle node mid-run so in-flight frames to it are dropped.
		clk.AfterFunc(95*time.Millisecond, func() { _ = net.Detach(addrs[1]) })
		clk.Advance(400 * time.Millisecond)
		return verdicts
	}

	ref := run(newLegacy)
	if len(ref) == 0 {
		t.Fatal("no feedback verdicts")
	}
	if got := run(New); !reflect.DeepEqual(got, ref) {
		t.Errorf("feedback verdicts diverged:\n legacy %q\n event  %q", ref, got)
	}
}

// TestDifferentialTopologyEdges walks the topology mutation surface —
// detach with in-flight frames, reattach, asymmetric links, link cuts under
// traffic, scenario playback, and a receiver upcall detaching another
// receiver of the same broadcast — and compares receive sequences.
func TestDifferentialTopologyEdges(t *testing.T) {
	run := func(mk newMedium) ([]string, Stats) {
		epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		clk := vclock.NewVirtual(epoch)
		net := mk(clk, 11)
		addrs := Addrs(5)
		if err := BuildGrid(net, addrs, 5, DefaultQuality()); err != nil {
			t.Fatalf("BuildGrid: %v", err)
		}
		var rxLog []string
		for _, a := range addrs {
			a := a
			nic, _ := net.NIC(a)
			nic.SetReceiver(func(f Frame) {
				rxLog = append(rxLog, fmt.Sprintf("t=%v %v->%v %x", clk.Now().Sub(epoch), f.Src, a, f.Payload))
				// Same-instant detach: addrs[3]'s "kill" broadcast reaches
				// addrs[2] and addrs[4] at one instant, addrs[2] first. Its
				// upcall detaches addrs[4], whose delivery is still due.
				if a == addrs[2] && string(f.Payload) == "kill" {
					_ = net.Detach(addrs[4])
				}
			})
		}
		var detached *NIC
		clk.AfterFunc(20*time.Millisecond, func() {
			detached, _ = net.NIC(addrs[2])
			_ = net.Detach(addrs[2])
		})
		clk.AfterFunc(60*time.Millisecond, func() {
			_ = net.Reattach(detached)
			_ = net.SetDirectedLink(addrs[1], addrs[2], DefaultQuality())
		})
		clk.AfterFunc(80*time.Millisecond, func() { net.CutLink(addrs[0], addrs[1]) })
		clk.AfterFunc(150*time.Millisecond, func() {
			_ = net.SetDirectedLink(addrs[3], addrs[2], DefaultQuality())
			nic, _ := net.NIC(addrs[3])
			_ = nic.Send(mnet.Broadcast, []byte("kill"))
		})
		for i, a := range addrs {
			a := a
			peer := addrs[(i+2)%len(addrs)]
			for k := 0; k < 12; k++ {
				k := k
				clk.AfterFunc(time.Duration(k)*9*time.Millisecond, func() {
					nic, ok := net.NIC(a)
					if !ok {
						return
					}
					_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("b %v %d", a, k)))
					_ = nic.Send(peer, []byte(fmt.Sprintf("u %v %d", a, k)))
				})
			}
		}
		clk.Advance(300 * time.Millisecond)
		return rxLog, net.Stats()
	}

	refRx, refStats := run(newLegacy)
	if len(refRx) == 0 {
		t.Fatal("no deliveries in reference run")
	}
	rx, stats := run(New)
	if stats != refStats {
		t.Errorf("Stats diverged:\n legacy %+v\n event  %+v", refStats, stats)
	}
	diffRx(t, "topology edges", refRx, rx)
}
