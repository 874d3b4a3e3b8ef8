package manetkit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"manetkit/internal/neighbor"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func lineStacks(t *testing.T, n int) (*VirtualClock, *Network, []*Stack) {
	t.Helper()
	clk := NewVirtualClock(epoch)
	net := NewNetwork(clk, 1)
	stacks, err := NewStacks(net, Addrs(n), StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})
	if err := BuildLine(net, Addrs(n), DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	return clk, net, stacks
}

func TestQuickstartDYMO(t *testing.T) {
	clk, _, stacks := lineStacks(t, 5)
	for _, s := range stacks {
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got []string
	stacks[4].OnDeliver(func(src Addr, payload []byte) {
		mu.Lock()
		got = append(got, src.String()+":"+string(payload))
		mu.Unlock()
	})
	if err := stacks[0].SendData(stacks[4].Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "10.0.0.1:hello" {
		t.Fatalf("got %v", got)
	}
}

func TestOLSRDeploymentInstallsRoutes(t *testing.T) {
	clk, _, stacks := lineStacks(t, 3)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(30 * time.Second)
	if got := stacks[0].OLSRUnit().Routes().ValidCount(); got != 2 {
		t.Fatalf("routes = %d", got)
	}
	// Proactive: data flows without discovery.
	var delivered bool
	stacks[2].OnDeliver(func(Addr, []byte) { delivered = true })
	if err := stacks[0].SendData(stacks[2].Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	if !delivered {
		t.Fatal("data not delivered over OLSR routes")
	}
}

func TestSerialProtocolSwitch(t *testing.T) {
	clk, _, stacks := lineStacks(t, 3)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(30 * time.Second)
	// Switch every node from OLSR to DYMO at runtime.
	for _, s := range stacks {
		if err := s.UndeployOLSR(); err != nil {
			t.Fatal(err)
		}
		if err := s.UndeployMPR(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if stacks[0].OLSRUnit() != nil || stacks[0].DYMOUnit() == nil {
		t.Fatal("switch bookkeeping broken")
	}
	var delivered bool
	stacks[2].OnDeliver(func(Addr, []byte) { delivered = true })
	if err := stacks[0].SendData(stacks[2].Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if !delivered {
		t.Fatal("data not delivered after protocol switch")
	}
}

func TestSimultaneousDeploymentSharesMPR(t *testing.T) {
	clk, _, stacks := lineStacks(t, 3)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	// Both protocols run; DYMO shares the MPR CF instead of a private
	// neighbour detector.
	units := stacks[0].Manager().Units()
	hasND := false
	for _, u := range units {
		if u == "neighbor-detection" {
			hasND = true
		}
	}
	if hasND {
		t.Fatalf("co-deployment did not share MPR: %v", units)
	}
	clk.Advance(30 * time.Second)
	if stacks[0].OLSRUnit().Routes().ValidCount() != 2 {
		t.Fatal("OLSR did not converge while co-deployed")
	}
}

func TestFisheyeEnableDisable(t *testing.T) {
	clk, _, stacks := lineStacks(t, 2)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := stacks[0].EnableFisheye(nil); err != nil {
		t.Fatal(err)
	}
	inter, _ := stacks[0].Manager().Chain("TC_OUT")
	if len(inter) != 1 {
		t.Fatalf("fisheye not interposed: %v", inter)
	}
	if err := stacks[0].DisableFisheye(); err != nil {
		t.Fatal(err)
	}
	inter, _ = stacks[0].Manager().Chain("TC_OUT")
	if len(inter) != 0 {
		t.Fatalf("fisheye not removed: %v", inter)
	}
	clk.Advance(time.Second)
}

func TestAODVDeploymentAndDiscovery(t *testing.T) {
	clk, _, stacks := lineStacks(t, 4)
	for _, s := range stacks {
		if _, err := s.DeployAODV(AODVConfig{PiggybackRoutes: true}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(3 * time.Second)
	var delivered bool
	stacks[3].OnDeliver(func(Addr, []byte) { delivered = true })
	if err := stacks[0].SendData(stacks[3].Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second) // expanding ring may need one retry
	if !delivered {
		t.Fatal("data not delivered over AODV")
	}
	if stacks[0].AODVUnit().State().Stats().Discoveries != 1 {
		t.Fatalf("stats = %+v", stacks[0].AODVUnit().State().Stats())
	}
	if err := stacks[0].UndeployAODV(); err != nil {
		t.Fatal(err)
	}
	if stacks[0].AODVUnit() != nil {
		t.Fatal("AODV still recorded after undeploy")
	}
}

// TestReactiveUndeployKeepsSharedND pins who owns the Neighbour Detection
// CF that DYMO and AODV share: undeploying one reactive protocol leaves the
// ND CF to a co-deployed other, and the last one out removes it.
func TestReactiveUndeployKeepsSharedND(t *testing.T) {
	hasND := func(s *Stack) bool {
		_, ok := s.Manager().Unit(neighbor.UnitName)
		return ok
	}

	clk, _, stacks := lineStacks(t, 4)
	for _, s := range stacks {
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeployAODV(AODVConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range stacks {
		if err := s.UndeployDYMO(); err != nil {
			t.Fatal(err)
		}
		if !hasND(s) {
			t.Fatalf("%v: UndeployDYMO removed the ND CF a co-deployed AODV uses", s.Addr())
		}
	}
	clk.Advance(3 * time.Second)
	var delivered bool
	stacks[3].OnDeliver(func(Addr, []byte) { delivered = true })
	if err := stacks[0].SendData(stacks[3].Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	if !delivered {
		t.Fatal("AODV did not deliver after DYMO was undeployed beside it")
	}

	_, _, alone := lineStacks(t, 1)
	if _, err := alone[0].DeployAODV(AODVConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := alone[0].UndeployAODV(); err != nil {
		t.Fatal(err)
	}
	if hasND(alone[0]) {
		t.Fatal("UndeployAODV left the ND CF deployed with no protocol using it")
	}
}

func TestRestrictToOneReactive(t *testing.T) {
	clk, _, stacks := lineStacks(t, 1)
	_ = clk
	s := stacks[0]
	if err := s.RestrictToOneReactive(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeployAODV(AODVConfig{}); err == nil {
		t.Fatal("second reactive protocol accepted despite integrity rule")
	}
	if err := s.UndeployDYMO(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeployAODV(AODVConfig{}); err != nil {
		t.Fatalf("AODV rejected after DYMO removal: %v", err)
	}
}

func TestZRPDeployment(t *testing.T) {
	clk, _, stacks := lineStacks(t, 6)
	for _, s := range stacks {
		if _, err := s.DeployZRP(ZRPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(8 * time.Second)
	// Intrazone (2 hops): proactive, no discovery.
	var nearDelivered bool
	stacks[2].OnDeliver(func(Addr, []byte) { nearDelivered = true })
	stacks[0].SendData(stacks[2].Addr(), []byte("near"))
	clk.Advance(time.Second)
	if !nearDelivered {
		t.Fatal("intrazone delivery failed")
	}
	if stacks[0].ZRPUnit().State().Stats().Discoveries != 0 {
		t.Fatal("intrazone traffic used discovery")
	}
	// Interzone (5 hops): reactive, one discovery.
	var farDelivered bool
	stacks[5].OnDeliver(func(Addr, []byte) { farDelivered = true })
	stacks[0].SendData(stacks[5].Addr(), []byte("far"))
	clk.Advance(2 * time.Second)
	if !farDelivered {
		t.Fatal("interzone delivery failed")
	}
	if stacks[0].ZRPUnit().State().Stats().Discoveries != 1 {
		t.Fatalf("stats = %+v", stacks[0].ZRPUnit().State().Stats())
	}
	if err := stacks[0].UndeployZRP(); err != nil {
		t.Fatal(err)
	}
	if stacks[0].ZRPUnit() != nil {
		t.Fatal("ZRP still recorded after undeploy")
	}
}

func TestPolicyEngineAccessor(t *testing.T) {
	_, _, stacks := lineStacks(t, 1)
	e1 := stacks[0].Policy()
	e2 := stacks[0].Policy()
	if e1 == nil || e1 != e2 {
		t.Fatal("Policy() should lazily create a single engine")
	}
}

func TestSniffFacade(t *testing.T) {
	clk, _, stacks := lineStacks(t, 2)
	var types []EventType
	if _, err := stacks[0].Sniff("tap", func(ev *Event) { types = append(types, ev.Type) }); err != nil {
		t.Fatal(err)
	}
	if _, err := stacks[0].DeployDYMO(DYMOConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := stacks[1].DeployDYMO(DYMOConfig{}); err != nil {
		t.Fatal(err)
	}
	stacks[0].SendData(stacks[1].Addr(), []byte("x"))
	clk.Advance(time.Second)
	if len(types) == 0 {
		t.Fatal("sniffer saw nothing")
	}
}

func TestCoordinateFacade(t *testing.T) {
	clk, _, stacks := lineStacks(t, 3)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	// Distributed switch OLSR -> DYMO across the whole network.
	err := Coordinate(stacks, CoordinatedAction{
		Name: "switch-to-dymo",
		Apply: func(s *Stack) error {
			if err := s.UndeployOLSR(); err != nil {
				return err
			}
			if err := s.UndeployMPR(); err != nil {
				return err
			}
			_, err := s.DeployDYMO(DYMOConfig{})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stacks {
		if s.OLSRUnit() != nil || s.DYMOUnit() == nil {
			t.Fatalf("stack %d not switched", i)
		}
	}
	// Rollback path: one node vetoes.
	err = Coordinate(stacks, CoordinatedAction{
		Name:    "vetoed",
		Prepare: func(s *Stack) error { return errAlways },
		Apply:   func(s *Stack) error { t.Fatal("apply ran despite veto"); return nil },
	})
	if err == nil {
		t.Fatal("vetoed action committed")
	}
}

var errAlways = fmt.Errorf("always vetoes")

func TestStackErrors(t *testing.T) {
	clk := NewVirtualClock(epoch)
	net := NewNetwork(clk, 1)
	s, err := NewStack(net, MustParseAddr("10.0.0.1"), StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := NewStack(net, MustParseAddr("10.0.0.1"), StackOptions{}); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	// UndeployMPR while OLSR is stacked fails.
	if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.UndeployMPR(); err == nil {
		t.Fatal("UndeployMPR with OLSR stacked succeeded")
	}
	// Idempotent deploys.
	o1, _ := s.DeployOLSR(OLSRConfig{})
	o2, _ := s.DeployOLSR(OLSRConfig{})
	if o1 != o2 {
		t.Fatal("DeployOLSR not idempotent")
	}
}
