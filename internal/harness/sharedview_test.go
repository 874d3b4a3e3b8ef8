package harness

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/olsr"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
)

// TestSharedViewsStayReadOnly runs every protocol family, and the fisheye
// and multipath variants, on a small grid under corruption, duplication
// and reordering, with a guard unit on each node that keeps every received
// message it is handed. Every receiver of a broadcast and every handler
// shares one decoded message, so after the run each kept message must
// still decode afresh from its own wire bytes to an equal message, and
// every delivered payload must still hold the bytes it arrived with: a
// write by any handler fails the test.
func TestSharedViewsStayReadOnly(t *testing.T) {
	for _, variant := range []string{"olsr", "olsr+fisheye", "dymo", "dymo+multipath", "aodv", "zrp"} {
		t.Run(variant, func(t *testing.T) {
			c, err := testbed.New(9, testbed.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Grid(3); err != nil {
				t.Fatal(err)
			}
			emunet.NewFaultPlan(5).
				CorruptFrames(4*time.Second, 24*time.Second, 0.05).
				DuplicateFrames(4*time.Second, 24*time.Second, 0.1).
				ReorderFrames(4*time.Second, 24*time.Second, 0.1, 3*time.Millisecond).
				Apply(c.Net)

			type delivered struct{ live, arrived []byte }
			var payloads []delivered
			c.Net.SetTap(func(f emunet.Frame, _ mnet.Addr) {
				if system.IsControlFrame(f.Payload) {
					payloads = append(payloads, delivered{f.Payload, bytes.Clone(f.Payload)})
				}
			})
			var views []*packetbb.Message
			for _, node := range c.Nodes {
				if err := deployVariant(c, node, variant); err != nil {
					t.Fatal(err)
				}
				if err := deployViewGuard(node, &views); err != nil {
					t.Fatal(err)
				}
			}
			a := c.Addrs()
			for i := 0; i < 6; i++ {
				c.Run(4 * time.Second)
				_ = c.Nodes[0].Sys.Filter().SendData(a[8], []byte("probe"))
				_ = c.Nodes[6].Sys.Filter().SendData(a[2], []byte("probe"))
			}
			c.Run(6 * time.Second)

			checked := 0
			for _, m := range views {
				w := m.Wire()
				if w == nil {
					continue // decoded from non-canonical (corrupted) bytes
				}
				fresh, err := packetbb.DecodeMessage(w)
				if err != nil || !reflect.DeepEqual(fresh, m) {
					t.Fatalf("a handler wrote to a shared %v message (decode err %v):\nnow   %+v\nwire  %+v", m.Type, err, m, fresh)
				}
				checked++
			}
			for _, p := range payloads {
				if !bytes.Equal(p.live, p.arrived) {
					t.Fatalf("a delivered control payload changed after delivery:\nnow     % x\narrived % x", p.live, p.arrived)
				}
			}
			if checked < len(views)*9/10 || checked == 0 {
				t.Fatalf("checked %d of %d received messages", checked, len(views))
			}
			if c.Net.Stats().Corrupted == 0 || c.Net.Stats().Duplicated == 0 {
				t.Fatalf("fault plan injected nothing: %+v", c.Net.Stats())
			}
		})
	}
}

// deployVariant installs a protocol family, or one of its variants, on node.
func deployVariant(c *testbed.Cluster, node *testbed.Node, variant string) error {
	switch variant {
	case "olsr+fisheye":
		if _, err := DeployFamily(c, node, "olsr"); err != nil {
			return err
		}
		fish := olsr.NewFisheye("", nil)
		if err := node.Mgr.Deploy(fish); err != nil {
			return err
		}
		return fish.Start()
	case "dymo+multipath":
		d, err := DeployDYMO(c, node)
		if err != nil {
			return err
		}
		return d.DYMO.EnableMultipath(2)
	default:
		_, err := DeployFamily(c, node, variant)
		return err
	}
}

// deployViewGuard deploys a unit that appends every received message it is
// handed to views, without touching it.
func deployViewGuard(node *testbed.Node, views *[]*packetbb.Message) error {
	in := []event.Type{event.HelloIn, event.TCIn, event.HNAIn, event.REIn, event.RerrIn}
	guard := core.NewProtocol("view-guard")
	var req []event.Requirement
	for _, typ := range in {
		req = append(req, event.Requirement{Type: typ})
	}
	guard.SetTuple(event.Tuple{Required: req})
	for _, typ := range in {
		err := guard.AddHandler(core.NewHandler("keep-"+string(typ), typ, func(ctx *core.Context, ev *event.Event) error {
			if ev.Msg != nil {
				*views = append(*views, ev.Msg)
			}
			return nil
		}))
		if err != nil {
			return err
		}
	}
	if err := node.Mgr.Deploy(guard); err != nil {
		return err
	}
	return guard.Start()
}
