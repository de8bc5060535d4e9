package comm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// dialMesh brings up an n-rank TCP mesh on loopback with default options.
func dialMesh(t testing.TB, n int) []*TCPTransport {
	t.Helper()
	return dialMeshOpts(t, n, TCPOptions{})
}

func TestTCPSendRecv(t *testing.T) {
	trs := dialMesh(t, 3)
	go trs[0].Send(2, Tag{Kind: KindGrad, A: 1, B: 2}, []float32{1.5, -2.5})
	got, err := trs[2].Recv(0, Tag{Kind: KindGrad, A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPEmptyPayload(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[1].Send(0, Tag{Kind: KindCtl, A: 9}, nil)
	got, err := trs[0].Recv(1, Tag{Kind: KindCtl, A: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPNegativeTagFields(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[0].Send(1, Tag{Kind: KindColl, A: -3, B: -1}, []float32{4})
	got, err := trs[1].Recv(0, Tag{Kind: KindColl, A: -3, B: -1})
	if err != nil || got[0] != 4 {
		t.Fatalf("negative tags: %v %v", got, err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[1].Send(1, Tag{A: 4}, []float32{3})
	got, err := trs[1].Recv(1, Tag{A: 4})
	if err != nil || got[0] != 3 {
		t.Fatalf("self send: %v %v", got, err)
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	trs := dialMesh(t, 2)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			trs[0].Send(1, Tag{Kind: KindAct}, []float32{float32(i)})
		}
	}()
	for i := 0; i < n; i++ {
		got, err := trs[1].Recv(0, Tag{Kind: KindAct})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float32(i) {
			t.Fatalf("order broken at %d: %v", i, got[0])
		}
	}
}

func TestTCPCollectivesWork(t *testing.T) {
	trs := dialMesh(t, 4)
	var wg sync.WaitGroup
	results := make([][]float32, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			data := []float32{float32(r), float32(r * 2), float32(r * 3), 1, 1}
			if err := RingAllReduceSum(trs[r], data, 11); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = data
		}(r)
	}
	wg.Wait()
	want := []float32{6, 12, 18, 4, 4}
	for r := 0; r < 4; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, results[r][i], want[i])
			}
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	trs := dialMesh(t, 2)
	big := make([]float32, 1<<18) // 1 MiB
	for i := range big {
		big[i] = float32(i % 997)
	}
	go trs[0].Send(1, Tag{Kind: KindWeight, A: 7}, big)
	got, err := trs[1].Recv(0, Tag{Kind: KindWeight, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// tcpRoundTrip sends payload from rank 0 to rank 1 and echoes it back by
// donation, releasing what arrives.
func tcpRoundTrip(tb testing.TB, trs []*TCPTransport, payload []float32) {
	tag := Tag{Kind: KindWeight, A: 3}
	if err := trs[0].Send(1, tag, payload); err != nil {
		tb.Fatal(err)
	}
	got, err := trs[1].Recv(0, tag)
	if err != nil {
		tb.Fatal(err)
	}
	if err := trs[1].SendOwned(0, tag, got); err != nil {
		tb.Fatal(err)
	}
	back, err := trs[0].Recv(1, tag)
	if err != nil {
		tb.Fatal(err)
	}
	if len(back) != len(payload) || back[len(back)-1] != payload[len(payload)-1] {
		tb.Fatalf("round trip returned %d elems", len(back))
	}
	Release(back)
}

// After warm-up, the TCP data path must be garbage-free: the sender writes
// straight from the pooled payload, the receiver reads straight into a
// pooled buffer, and frame records, write vectors and control frames are
// all reused. A round trip of a 1M-float payload (8 MiB on the wire) may
// allocate less than 1% of the payload's bytes.
func TestTCPRoundTripSteadyStateAllocs(t *testing.T) {
	trs := dialMesh(t, 2)
	const n = 1 << 20
	payload := make([]float32, n)
	for i := range payload {
		payload[i] = float32(i)
	}
	// Warm-up: fill the buffer pool with the working set of in-flight
	// payloads and let every link reach its steady state.
	var warm [stashDepth][]float32
	for i := range warm {
		warm[i] = GetBuf(n)
	}
	for i := range warm {
		Release(warm[i])
	}
	for i := 0; i < 8; i++ {
		tcpRoundTrip(t, trs, payload)
	}
	const trips = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		tcpRoundTrip(t, trs, payload)
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / trips
	if limit := 0.01 * 4 * n; perTrip >= limit {
		t.Fatalf("a 1M-float TCP round trip allocates %.0f bytes, want < %.0f (1%% of the payload)", perTrip, limit)
	}
	t.Logf("%.0f bytes allocated per round trip", perTrip)
}

// BenchmarkTCPRoundTrip times a loopback 0→1→0 round trip of one payload
// (Send out, donated echo back); bytes/s counts both directions.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("elems=%d", n), func(b *testing.B) {
			trs := dialMesh(b, 2)
			payload := make([]float32, n)
			tcpRoundTrip(b, trs, payload)
			b.SetBytes(int64(2 * 4 * n))
			b.ReportAllocs()
			for b.Loop() {
				tcpRoundTrip(b, trs, payload)
			}
		})
	}
}
