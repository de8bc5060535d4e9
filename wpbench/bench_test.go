package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"weipipe"
	"weipipe/internal/comm"
	"weipipe/internal/trace"
)

// The decorator must expose every optional interface the runtime probes.
var (
	_ comm.OwnedSender                        = (*meteredTransport)(nil)
	_ comm.Meter                              = (*meteredTransport)(nil)
	_ comm.CodecProvider                      = (*meteredTransport)(nil)
	_ comm.Recoverer                          = (*meteredTransport)(nil)
	_ interface{ Flush(time.Duration) error } = (*meteredTransport)(nil)
)

func TestReconcilePinsSelfTimes(t *testing.T) {
	const us = int64(time.Microsecond)
	ev := func(code trace.Code, start, dur int64) trace.Event {
		return trace.Event{Code: code, Start: start * us, Dur: dur * us, A: 1}
	}
	events := []trace.Event{
		ev(trace.CodeStep, 0, 100),
		ev(trace.CodeF, 0, 20),
		ev(trace.CodeStall, 20, 5),
		ev(trace.CodeB, 25, 20),
		ev(trace.CodeW, 45, 10),
		// The optimizer span opens before the blocking retire-gradient
		// receive, whose stall span nests inside it.
		ev(trace.CodeOpt, 60, 30),
		ev(trace.CodeStall, 62, 18),
		// Spans outside the step and untracked codes do not count.
		ev(trace.CodeF, 150, 10),
		ev(trace.CodeSend, 10, 50),
	}
	got, err := reconcile(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d rank-steps, want 1", len(got))
	}
	d := func(v int64) time.Duration { return time.Duration(v * us) }
	want := breakdown{Iter: 1, F: d(20), B: d(20), W: d(10), OptSelf: d(12), Stall: d(23), Unattributed: d(15), Step: d(100)}
	if got[0] != want {
		t.Fatalf("ledger %+v, want %+v", got[0], want)
	}
	b := got[0]
	if sum := b.F + b.B + b.W + b.OptSelf + b.Stall + b.Unattributed; sum != b.Step {
		t.Fatalf("ledger sums to %v, step is %v", sum, b.Step)
	}
}

func TestReconcileRejectsPartialOverlap(t *testing.T) {
	events := []trace.Event{
		{Code: trace.CodeStep, Start: 0, Dur: 100},
		{Code: trace.CodeOpt, Start: 10, Dur: 30},
		{Code: trace.CodeStall, Start: 30, Dur: 20},
	}
	if _, err := reconcile(events); err == nil {
		t.Fatal("a stall span straddling the optimizer span's end was accepted")
	}
}

func TestMeanBreakdownSumsToStep(t *testing.T) {
	m := meanBreakdown([]breakdown{
		{F: 1, B: 1, W: 1, OptSelf: 1, Stall: 1, Unattributed: 0, Step: 5},
		{F: 2, B: 2, W: 2, OptSelf: 2, Stall: 2, Unattributed: 2, Step: 12},
	})
	if sum := m.F + m.B + m.W + m.OptSelf + m.Stall + m.Unattributed; sum != m.Step {
		t.Fatalf("mean ledger sums to %v, step is %v", sum, m.Step)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives these first and third quartiles.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// runSmall trains a tiny WZB2 cluster for a few steps and returns its
// losses and every rank's comm.Stats byte and message counts.
func runSmall(t *testing.T, tcp, metered bool) (losses []float64, bytes, msgs []int64, c *trainCluster) {
	t.Helper()
	spec := trainSpec{strategy: weipipe.WZB2, tcp: tcp, hidden: 32, layers: 2, heads: 2, seq: 8, g: 1, n: 4}
	cfg := spec.config(3)
	batches := spec.batches(3)
	c, err := newTrainCluster(spec, cfg, weipipe.DefaultOptions(lr), metered)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for k := 0; k < 3; k++ {
		l, _, err := c.step(batches[k%len(batches)], k)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l...)
	}
	for _, tr := range c.transports {
		st := tr.(comm.Meter).CommStats()
		bytes = append(bytes, st.TotalSentBytes())
		msgs = append(msgs, statsMsgs(st))
	}
	return losses, bytes, msgs, c
}

func TestMeteredTransportKeepsPathsAndCounts(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "inproc"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			wantLoss, wantBytes, wantMsgs, _ := runSmall(t, tcp, false)
			gotLoss, gotBytes, gotMsgs, c := runSmall(t, tcp, true)
			for i := range wantLoss {
				if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
					t.Fatalf("loss %d: wrapped %v, unwrapped %v", i, gotLoss[i], wantLoss[i])
				}
			}
			for r := range wantBytes {
				if gotBytes[r] != wantBytes[r] || gotMsgs[r] != wantMsgs[r] {
					t.Errorf("rank %d: wrapped sent %d B in %d msgs, unwrapped %d B in %d msgs",
						r, gotBytes[r], gotMsgs[r], wantBytes[r], wantMsgs[r])
				}
				if n := c.meters[r].msgs.Load(); n != gotMsgs[r] {
					t.Errorf("rank %d: decorator counted %d sends, comm.Stats %d", r, n, gotMsgs[r])
				}
			}
		})
	}
}

func TestPerLayerListMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.PerLayer) != len(perLayerUnits) {
		t.Fatalf("%s lists %d per-layer metrics, the benchmark reports %d", benchmarkFile, len(c.PerLayer), len(perLayerUnits))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayerUnits[i].name || m.Unit != perLayerUnits[i].unit {
			t.Errorf("per-layer metric %d: %s has %s [%s], the benchmark reports %s [%s]",
				i, benchmarkFile, m.Name, m.Unit, perLayerUnits[i].name, perLayerUnits[i].unit)
		}
	}
}
