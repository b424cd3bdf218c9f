package causal

import (
	"testing"
	"time"

	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/transport"
)

func TestAdvertCodecRoundTrip(t *testing.T) {
	tests := []struct {
		name       string
		retained   map[string]uint64
		watermarks map[string]uint64
	}{
		{"both empty", map[string]uint64{}, map[string]uint64{}},
		{"retained only", map[string]uint64{"a~cli": 7}, map[string]uint64{}},
		{"watermarks only", map[string]uint64{}, map[string]uint64{"b": 3}},
		{"both", map[string]uint64{"a": 1, "b~t": 9}, map[string]uint64{"a": 1, "c": 12}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame := encodeAdvert(tt.retained, tt.watermarks)
			if frame[0] != frameOSendAdvert {
				t.Fatalf("frame tag = %d", frame[0])
			}
			retained, watermarks, err := decodeAdvert(frame[1:])
			if err != nil {
				t.Fatal(err)
			}
			if len(retained) != len(tt.retained) || len(watermarks) != len(tt.watermarks) {
				t.Fatalf("decoded %d/%d entries, want %d/%d",
					len(retained), len(watermarks), len(tt.retained), len(tt.watermarks))
			}
			for k, v := range tt.retained {
				if retained[k] != v {
					t.Errorf("retained[%q] = %d, want %d", k, retained[k], v)
				}
			}
			for k, v := range tt.watermarks {
				if watermarks[k] != v {
					t.Errorf("watermarks[%q] = %d, want %d", k, watermarks[k], v)
				}
			}
		})
	}
}

func TestAdvertDecodeErrors(t *testing.T) {
	valid := encodeAdvert(map[string]uint64{"abc": 5}, map[string]uint64{"d": 1})
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated first map", valid[1:3]},
		{"truncated second map", valid[1 : len(valid)-1]},
		{"trailing bytes", append(append([]byte{}, valid[1:]...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := decodeAdvert(tt.data); err == nil {
				t.Error("decode succeeded on malformed advert")
			}
		})
	}
}

func TestRouteOrigin(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"member", "member"},
		{"member~total", "member"},
		{"r2~cli", "r2"},
		{"a~b~c", "a"},
		{"~weird", ""},
		{"", ""},
	}
	for _, tt := range tests {
		if got := RouteOrigin(tt.in); got != tt.want {
			t.Errorf("RouteOrigin(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// retainedState reads an engine's retained depth and stable-pruned count.
func retainedState(t *testing.T, b Broadcaster, prefix string) (retained int64, pruned uint64) {
	t.Helper()
	e, ok := b.(interface{ Snapshot() telemetry.Snapshot })
	if !ok {
		t.Fatalf("%T has no snapshot", b)
	}
	s := e.Snapshot()
	retained, _ = s.GaugeValue(prefix+"retained_depth", "")
	return retained, s.Get(prefix + "stable_pruned_total")
}

func TestStabilityGarbageCollection(t *testing.T) {
	// With patience enabled, adverts flow; once every peer's watermark
	// covers the sender's messages, the retained copies must be pruned.
	for _, eng := range depEngines {
		t.Run(eng.name, func(t *testing.T) {
			net := transport.NewChanNet(transport.FaultModel{})
			c := eng.cluster(t, []string{"a", "b", "c"}, net, 10*time.Millisecond)
			defer c.close(t)

			const count = 20
			for i := uint64(1); i <= count; i++ {
				m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
				if err := c.bcs["a"].Broadcast(m); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []string{"a", "b", "c"} {
				c.cols[id].waitFor(t, count, 2*time.Second)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				retained, pruned := retainedState(t, c.bcs["a"], eng.metrics)
				if retained == 0 && pruned == count {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("retained not pruned: retained=%d stable_pruned=%d", retained, pruned)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

func TestStabilityGCStillServesUnstableFetches(t *testing.T) {
	// Two of three members deliver; the third is partitioned. Messages
	// must remain retained (not stable) so the partitioned member can
	// recover after healing.
	for _, eng := range depEngines {
		t.Run(eng.name, func(t *testing.T) {
			net := transport.NewChanNet(transport.FaultModel{})
			c := eng.cluster(t, []string{"a", "b", "c"}, net, 10*time.Millisecond)
			defer c.close(t)

			net.Partition("a", "c", true)
			net.Partition("b", "c", true)
			const count = 5
			for i := uint64(1); i <= count; i++ {
				m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
				if err := c.bcs["a"].Broadcast(m); err != nil {
					t.Fatal(err)
				}
			}
			c.cols["b"].waitFor(t, count, 2*time.Second)
			time.Sleep(30 * time.Millisecond) // adverts circulate between a and b
			if retained, _ := retainedState(t, c.bcs["a"], eng.metrics); retained != count {
				t.Fatalf("retained = %d during partition, want %d (c has not delivered)", retained, count)
			}
			net.Heal()
			c.cols["c"].waitFor(t, count, 5*time.Second)
			deadline := time.Now().Add(5 * time.Second)
			for {
				retained, pruned := retainedState(t, c.bcs["a"], eng.metrics)
				if retained == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("retained not pruned after heal: retained=%d stable_pruned=%d", retained, pruned)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}
