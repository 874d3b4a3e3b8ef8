package emunet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// TestEngineRaceStress hammers the event core from the outside while its
// epochs run: one goroutine drives the virtual clock (and with it every
// epoch's commit loop), while others churn the topology, fire scripted
// traffic, apply fault schedules and read every observer surface. Run
// under -race in CI it proves the clock goroutine never shares unguarded
// mutable state with the admin or observer paths. Determinism is NOT
// asserted here — concurrent admin ops interleave with the clock
// arbitrarily — only memory safety and liveness; the replay tests cover
// determinism.
func TestEngineRaceStress(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, 3)
	const n = 24
	addrs := Addrs(n)
	if err := BuildGrid(net, addrs, 6, DefaultQuality()); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	for _, a := range addrs {
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) {})
	}
	// A rolling fault schedule keeps injector callbacks (corrupt, duplicate,
	// reorder, partition heal/cut) firing inside epochs for the whole run.
	NewFaultPlan(99).
		Partition(5*time.Millisecond, 80*time.Millisecond, addrs[:n/2], addrs[n/2:]).
		CorruptFrames(0, 200*time.Millisecond, 0.2).
		DuplicateFrames(0, 200*time.Millisecond, 0.2).
		ReorderFrames(0, 200*time.Millisecond, 0.2, 2*time.Millisecond).
		Apply(net)

	// Scripted traffic: every node broadcasts and unicasts on a dense timer
	// grid so epochs stay full while the churn goroutines run.
	for i, a := range addrs {
		a := a
		peer := addrs[(i+5)%n]
		for k := 0; k < 40; k++ {
			k := k
			clk.AfterFunc(time.Duration(k)*5*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("b %d", k)))
				_ = nic.SendWithFeedback(peer, []byte("f"), func(bool) {})
			})
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Clock driver: the only goroutine advancing virtual time; each Advance
	// commits the epochs that fall due.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 50; i++ {
			clk.Advance(4 * time.Millisecond)
		}
	}()

	// Topology churn: cut, relink, detach and reattach while frames are in
	// flight between those same nodes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		for {
			select {
			case <-done:
				return
			default:
			}
			a, b := addrs[rng.Intn(n)], addrs[rng.Intn(n)]
			switch rng.Intn(4) {
			case 0:
				_ = net.SetLink(a, b, DefaultQuality())
			case 1:
				net.CutLink(a, b)
			case 2:
				q := DefaultQuality()
				q.Loss = 0.3
				_ = net.SetDirectedLink(a, b, q)
			case 3:
				if nic, ok := net.NIC(a); ok {
					_ = net.Detach(a)
					_ = net.Reattach(nic)
				}
			}
		}
	}()

	// Observer: every read-side surface, concurrently with epochs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = net.Stats()
			_, _ = net.EngineStats()
			_ = net.Neighbors(addrs[rng.Intn(n)])
			_ = net.Nodes()
			_, _ = net.LinkQuality(addrs[rng.Intn(n)], addrs[rng.Intn(n)])
		}
	}()

	// Tap churn: install and remove packet taps mid-run — the commit phase
	// snapshots them per delivery.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				net.SetTap(func(f Frame, r mnet.Addr) {})
				net.SetTxTap(func(f Frame) {})
			} else {
				net.SetTap(nil)
				net.SetTxTap(nil)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	if s := net.Stats(); s.TxFrames == 0 {
		t.Fatal("stress run moved no traffic")
	}
}
