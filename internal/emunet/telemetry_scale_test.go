package emunet_test

// The telemetry bus under real load: a thousand-node emulation (the same
// scenario shape as the replay-scale gate, rebuilt over the exported API
// because this external package is what may import telemetry) streams
// spans and engine epochs to live subscribers. The gates:
//
//   - a deliberately tiny spans subscriber loses events but never stalls
//     the emulation, and its accounting is exact to the event;
//   - the engine subscriber with ample buffer sees every epoch, and the
//     decoded epochs reproduce the engine's own cumulative counters;
//   - the flight recorder's dump is byte-identical across GOMAXPROCS 1
//     and all CPUs — the streaming layer inherits the event core's
//     replay determinism.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/trace"
	"manetkit/internal/vclock"
)

// thousandNodeBusRun drives the 1000-node grid with a bus attached and
// one subscriber per busy stream. Returns the recorder dump fingerprint
// and the network's engine stats.
func thousandNodeBusRun(t *testing.T) (string, emunet.EngineStats) {
	t.Helper()
	const n, cols = 1000, 32
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1701)
	tr := trace.New(epoch, 0)
	net.SetTracer(tr)

	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 17})
	telemetry.AttachTracer(bus, tr)
	telemetry.AttachEngine(bus, net)
	engineSub := bus.Subscribe(1<<16, telemetry.StreamEngine) // ample: loses nothing
	spansSub := bus.Subscribe(64, telemetry.StreamSpans)      // tiny: must drop, not stall
	idleSub := bus.Subscribe(8, telemetry.StreamHealth)       // nothing flows here

	nodes := emunet.Addrs(n)
	q := emunet.DefaultQuality()
	q.Loss = 0.05
	if err := emunet.BuildGrid(net, nodes, cols, q); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	for i, a := range nodes {
		a := a
		echoed := false
		nic, _ := net.NIC(a)
		back := nodes[(i+n-1)%n]
		nic.SetReceiver(func(f emunet.Frame) {
			if f.Dst == a && !echoed && len(f.Payload) > 0 && f.Payload[0] == 'p' {
				echoed = true
				_ = nic.Send(back, []byte("echo"))
			}
		})
	}
	emunet.NewFaultPlan(93).
		Partition(80*time.Millisecond, 200*time.Millisecond, nodes[:n/2], nodes[n/2:]).
		CorruptFrames(0, 300*time.Millisecond, 0.1).
		DuplicateFrames(0, 300*time.Millisecond, 0.1).
		Apply(net)
	for i, a := range nodes {
		a := a
		peer := nodes[(i+cols+1)%n]
		for k := 0; k < 3; k++ {
			k := k
			clk.AfterFunc(time.Duration(10+k*90)*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("b%d", k)))
				_ = nic.Send(peer, []byte("ping"))
			})
		}
	}
	clk.Advance(400 * time.Millisecond)
	fp := bus.Fingerprint()
	bus.Close()

	// Exact accounting, stream by stream.
	spanTotal := uint64(tr.Len()) + tr.Dropped()
	if st := spansSub.Stats(); st.Published != spanTotal {
		t.Errorf("spans published %d, want every recorded span (%d)", st.Published, spanTotal)
	} else if st.Published != st.Delivered+st.Dropped {
		t.Errorf("spans accounting broken: %+v", st)
	} else if st.Dropped == 0 {
		t.Errorf("spans subscriber with buffer 64 dropped nothing over %d spans", st.Published)
	}

	var drained []telemetry.Event
	for ev := range engineSub.C() {
		drained = append(drained, ev)
	}
	eng, ok := net.EngineStats()
	if !ok {
		t.Fatal("EngineStats: not the event core")
	}
	if st := engineSub.Stats(); st.Dropped != 0 || st.Delivered != uint64(len(drained)) {
		t.Errorf("engine subscriber stats %+v over %d drained", st, len(drained))
	}
	if uint64(len(drained)) != eng.Epochs {
		t.Errorf("engine stream delivered %d epochs, engine committed %d", len(drained), eng.Epochs)
	}
	var sum uint64
	for _, ev := range drained {
		var es emunet.EpochStats
		if err := json.Unmarshal(ev.Data, &es); err != nil {
			t.Fatalf("epoch event payload: %v", err)
		}
		sum += uint64(es.Events)
	}
	if sum != eng.Events {
		t.Errorf("epoch events sum %d != engine total %d", sum, eng.Events)
	}
	if st := idleSub.Stats(); st.Published != 0 {
		t.Errorf("health subscriber saw %d events on a run with no monitor", st.Published)
	}
	return fp, eng
}

func TestThousandNodeTelemetryAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node telemetry run; skipped in -short")
	}
	prev := runtime.GOMAXPROCS(1)
	serialFP, serialEng := thousandNodeBusRun(t)
	runtime.GOMAXPROCS(prev)
	parallelFP, parallelEng := thousandNodeBusRun(t)
	if serialEng.Events == 0 {
		t.Fatalf("empty run: %+v", serialEng)
	}
	if serialFP != parallelFP {
		t.Errorf("flight-recorder fingerprint diverged across GOMAXPROCS 1 vs %d: %s vs %s",
			runtime.GOMAXPROCS(0), serialFP, parallelFP)
	}
	if serialEng != parallelEng {
		t.Errorf("EngineStats diverged across GOMAXPROCS:\n serial   %+v\n parallel %+v",
			serialEng, parallelEng)
	}
}
