package emunet

import (
	"testing"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// TestEpochObserverAndShardGauges drives a 12-node clique through one
// broadcast storm and checks the per-epoch telemetry against the engine's
// own cumulative counters and the metrics registry.
func TestEpochObserverAndShardGauges(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, 7)
	reg := metrics.NewRegistry()
	net.SetMetrics(reg)

	var epochs []EpochStats
	net.SetEpochObserver(func(es EpochStats) { epochs = append(epochs, es) })

	nodes := Addrs(12)
	if err := BuildClique(net, nodes, DefaultQuality()); err != nil {
		t.Fatalf("BuildClique: %v", err)
	}
	// Every node broadcasts at the same instant: all deliveries share one
	// arrival time, so they land in one epoch.
	for _, a := range nodes {
		a := a
		clk.AfterFunc(time.Millisecond, func() {
			nic, _ := net.NIC(a)
			_ = nic.Send(mnet.Broadcast, []byte("hello"))
		})
	}
	clk.Advance(50 * time.Millisecond)

	if len(epochs) == 0 {
		t.Fatal("no epochs observed")
	}
	var sum uint64
	var maxEvents int
	for i, es := range epochs {
		if es.Epoch != uint64(i+1) {
			t.Fatalf("epoch %d has ordinal %d, want %d", i, es.Epoch, i+1)
		}
		if es.CommitLag != 0 {
			t.Errorf("epoch %d commit lag %s: must be 0 on the virtual clock", i, es.CommitLag)
		}
		sum += uint64(es.Events)
		if es.Events > maxEvents {
			maxEvents = es.Events
		}
	}
	if epochs[len(epochs)-1].QueueDepth != 0 {
		t.Errorf("final epoch left queue depth %d", epochs[len(epochs)-1].QueueDepth)
	}
	// The storm epoch: 12 broadcasts × 11 receivers at one instant.
	if maxEvents != 132 {
		t.Errorf("storm epoch: %d events, want 132", maxEvents)
	}
	if rx := net.Stats().RxFrames; sum != rx {
		t.Errorf("epoch events sum %d != Stats.RxFrames %d", sum, rx)
	}

	eng, ok := net.EngineStats()
	if !ok {
		t.Fatal("EngineStats: not the event core")
	}
	want := EngineStats{Epochs: uint64(len(epochs)), Events: sum, MaxEpochEvents: maxEvents}
	if eng != want {
		t.Fatalf("EngineStats %+v, want %+v (from observed epochs)", eng, want)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["net_engine_epochs"]; got != uint64(len(epochs)) {
		t.Errorf("net_engine_epochs = %d, want %d", got, len(epochs))
	}
	if got := snap.Counters["net_engine_epoch_events"]; got != sum {
		t.Errorf("net_engine_epoch_events = %d, want %d", got, sum)
	}
}

// TestEpochObserverLegacyEngine: the legacy reference path has no epochs;
// the observer must simply never fire and EngineStats must say so.
func TestEpochObserverLegacyEngine(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := newLegacy(clk, 7)
	fired := false
	net.SetEpochObserver(func(EpochStats) { fired = true })
	nodes := Addrs(2)
	if err := BuildLine(net, nodes, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	nic, _ := net.NIC(nodes[0])
	_ = nic.Send(nodes[1], []byte("x"))
	clk.Advance(10 * time.Millisecond)
	if fired {
		t.Fatal("epoch observer fired on the legacy engine")
	}
	if _, ok := net.EngineStats(); ok {
		t.Fatal("EngineStats ok on the legacy engine")
	}
	if net.Stats().RxFrames != 1 {
		t.Fatalf("legacy delivery broken: %+v", net.Stats())
	}
}
