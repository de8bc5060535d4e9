package comm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base (plus a small slack for runtime helpers), failing after 3 seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRecvTimeoutInproc(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	tr := c.Transport(0)
	start := time.Now()
	_, err := tr.RecvTimeout(1, Tag{Kind: KindAct, A: 1}, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout error, got %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Src != 1 {
		t.Fatalf("want *TimeoutError with Src=1, got %#v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("returned after %v, before the deadline", elapsed)
	}
	if got := c.Stats(0).Faults(1).Timeouts; got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

func TestRecvTimeoutDeliveredInTime(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Transport(1).Send(0, Tag{A: 5}, []float32{7})
	}()
	got, err := c.Transport(0).RecvTimeout(1, Tag{A: 5}, time.Second)
	if err != nil || got[0] != 7 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// Close must fail every pending Recv — a blocked runner has to come home
// when its endpoint dies (regression: Recv used to hang forever).
func TestCloseFailsPendingRecvInproc(t *testing.T) {
	c := NewCluster(2)
	tr := c.Transport(0)
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := tr.Recv(1, Tag{Kind: KindGrad, A: i})
			errc <- err
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let both park in Recv
	tr.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("want ErrClosed, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv still blocked after Close")
		}
	}
}

func TestCloseFailsPendingRecvTCP(t *testing.T) {
	trs := dialMesh(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := trs[0].Recv(1, Tag{Kind: KindGrad, A: 1})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	trs[0].Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Recv returned data after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Close")
	}
}

// dropPattern sends n tagged messages through a FaultTransport and returns
// which ordinals were dropped (observed via receive timeouts).
func dropPattern(t *testing.T, seed uint64, n int) []bool {
	t.Helper()
	c := NewCluster(2)
	defer c.Close()
	ft := NewFaultTransport(c.Transport(0), FaultConfig{
		Seed:    seed,
		Default: LinkFaults{DropProb: 0.3},
	})
	for i := 0; i < n; i++ {
		if err := ft.Send(1, Tag{Kind: KindAct, A: i}, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pat := make([]bool, n)
	rx := c.Transport(1)
	for i := 0; i < n; i++ {
		_, err := rx.RecvTimeout(0, Tag{Kind: KindAct, A: i}, 30*time.Millisecond)
		pat[i] = errors.Is(err, ErrTimeout)
	}
	drops, _, _, _, sends := ft.Injected()
	if sends != int64(n) {
		t.Fatalf("sends = %d, want %d", sends, n)
	}
	got := 0
	for _, d := range pat {
		if d {
			got++
		}
	}
	if int64(got) != drops {
		t.Fatalf("observed %d missing messages, injector reports %d drops", got, drops)
	}
	return pat
}

// Fault decisions must be a pure function of the seed: the same scenario
// replays identically, and a different seed gives a different pattern.
func TestFaultTransportDeterministic(t *testing.T) {
	const n = 120
	a := dropPattern(t, 42, n)
	b := dropPattern(t, 42, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
	other := dropPattern(t, 43, n)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestFaultTransportDup(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	ft := NewFaultTransport(c.Transport(0), FaultConfig{Default: LinkFaults{DupProb: 1}})
	ft.Send(1, Tag{A: 1}, []float32{9})
	rx := c.Transport(1)
	for i := 0; i < 2; i++ {
		got, err := rx.RecvTimeout(0, Tag{A: 1}, time.Second)
		if err != nil || got[0] != 9 {
			t.Fatalf("copy %d: %v %v", i, got, err)
		}
	}
}

func TestFaultTransportReorder(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	ft := NewFaultTransport(c.Transport(0), FaultConfig{Default: LinkFaults{ReorderProb: 1}})
	ft.Send(1, Tag{Kind: KindAct}, []float32{1}) // held
	ft.Send(1, Tag{Kind: KindAct}, []float32{2}) // held; releases 1
	got, err := c.Transport(1).RecvTimeout(0, Tag{Kind: KindAct}, time.Second)
	if err != nil || got[0] != 1 {
		t.Fatalf("after swap, first delivery = %v (%v), want 1", got, err)
	}
	if err := ft.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = c.Transport(1).RecvTimeout(0, Tag{Kind: KindAct}, time.Second)
	if err != nil || got[0] != 2 {
		t.Fatalf("flushed delivery = %v (%v), want 2", got, err)
	}
}

func TestFaultTransportCrashAtSend(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	ft := NewFaultTransport(c.Transport(0), FaultConfig{CrashAtSend: 3})
	for i := 1; i <= 2; i++ {
		if err := ft.Send(1, Tag{A: i}, []float32{1}); err != nil {
			t.Fatalf("send %d before crash: %v", i, err)
		}
	}
	if err := ft.Send(1, Tag{A: 3}, []float32{1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash send: want ErrCrashed, got %v", err)
	}
	if !ft.Crashed() {
		t.Fatal("Crashed() = false after scheduled crash")
	}
	if err := ft.Send(1, Tag{A: 4}, []float32{1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash send: want ErrCrashed, got %v", err)
	}
	if _, err := ft.Recv(1, Tag{A: 1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash recv: want ErrCrashed, got %v", err)
	}
	// The crash closed the underlying endpoint: its own pending state fails.
	if _, err := c.Transport(0).Recv(1, Tag{A: 9}); err == nil {
		t.Fatal("underlying transport survived the crash")
	}
}

// chaosMesh brings up a 2-rank TCP mesh with aggressive frame-level fault
// injection and test-scale timeouts.
func chaosMesh(t *testing.T, chaos *ChaosConfig, peerDead time.Duration) []*TCPTransport {
	t.Helper()
	return dialMeshOpts(t, 2, TCPOptions{
		DialTimeout:       5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		PeerDeadTimeout:   peerDead,
		RetransmitTimeout: 40 * time.Millisecond,
		ReconnectBackoff:  5 * time.Millisecond,
		Chaos:             chaos,
	})
}

// The reliability layer must mask every chaos fault: with drops, dups,
// reordering, corruption and periodic connection resets injected below the
// sequence layer, a long same-tag stream still arrives complete and in
// order.
func TestTCPChaosMaskedDelivery(t *testing.T) {
	trs := chaosMesh(t, &ChaosConfig{
		Seed:       7,
		Drop:       0.15,
		Dup:        0.15,
		Reorder:    0.10,
		Corrupt:    0.08,
		ResetEvery: 41,
	}, 10*time.Second)
	const n = 250
	var wg sync.WaitGroup
	for dir := 0; dir < 2; dir++ {
		src, dst := dir, 1-dir
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := trs[src].Send(dst, Tag{Kind: KindAct}, []float32{float32(i)}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				got, err := trs[dst].RecvTimeout(src, Tag{Kind: KindAct}, 20*time.Second)
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				if got[0] != float32(i) {
					t.Errorf("order broken at %d: got %v", i, got[0])
					Release(got)
					return
				}
				Release(got)
			}
		}()
	}
	wg.Wait()
	// The chaos parameters guarantee faults happened; the counters must show
	// the machinery actually working, not the test passing vacuously.
	total := NewStats()
	total.Add(trs[0].CommStats())
	total.Add(trs[1].CommStats())
	f := total.TotalFaults()
	if f.Retransmits == 0 {
		t.Error("no retransmissions recorded under 15% frame drop")
	}
	if f.DupFrames == 0 {
		t.Error("no duplicate frames recorded under 15% dup injection")
	}
	if f.CorruptFrames == 0 {
		t.Error("no corrupt frames recorded under 8% corruption injection")
	}
	if f.Reconnects == 0 {
		t.Error("no reconnections recorded with ResetEvery=41")
	}
}

// A link whose writes are slow — every data write held for up to several
// retransmission timeouts — must not retransmit anything: the RTO clock
// starts when a write returns, so a frame still being written (or queued
// behind one) is not mistaken for a lost one. No duplicate may reach the
// receiver either.
func TestTCPChaosSlowWriteNoRetransmit(t *testing.T) {
	trs := dialMeshOpts(t, 2, TCPOptions{
		DialTimeout:       5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		PeerDeadTimeout:   10 * time.Second,
		RetransmitTimeout: 100 * time.Millisecond,
		ReconnectBackoff:  5 * time.Millisecond,
		Chaos:             &ChaosConfig{Seed: 5, DelayProb: 1, MaxDelay: 400 * time.Millisecond},
	})
	const frames, n = 6, 1 << 18 // 1 MiB each
	data := make([]float32, n)
	for i := 0; i < frames; i++ {
		data[0] = float32(i)
		if err := trs[0].Send(1, Tag{Kind: KindWeight, A: i}, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight, A: i}, 20*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) != n || got[0] != float32(i) {
			t.Fatalf("frame %d: %d elems, first %v", i, len(got), got[0])
		}
		Release(got)
	}
	if err := trs[0].Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f := trs[0].CommStats().Faults(1); f.Retransmits != 0 {
		t.Errorf("slow writes triggered %d retransmits, want 0", f.Retransmits)
	}
	if f := trs[1].CommStats().Faults(0); f.DupFrames != 0 {
		t.Errorf("receiver saw %d duplicate frames, want 0", f.DupFrames)
	}
}

// A peer that vanishes (process killed) must be detected by heartbeat
// silence and declared dead, failing pending receives with *PeerDeadError
// instead of hanging.
func TestTCPPeerDeathFailsPendingRecv(t *testing.T) {
	trs := chaosMesh(t, nil, 300*time.Millisecond)
	errc := make(chan error, 1)
	go func() {
		_, err := trs[0].Recv(1, Tag{Kind: KindGrad, A: 1})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	trs[1].Close() // rank 1 "dies": connections drop, no reconnection follows
	select {
	case err := <-errc:
		var pd *PeerDeadError
		if !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("want *PeerDeadError{Rank: 1}, got %v", err)
		}
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("error does not match ErrPeerDead sentinel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer death not detected; Recv still blocked")
	}
}

// A peer that never comes up must fail DialTCP with a per-peer error after
// the configured timeout — and leak nothing.
func TestTCPDialTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = DialTCPOpts(0, addrs, TCPOptions{DialTimeout: 250 * time.Millisecond})
	if err == nil {
		t.Fatal("dial with absent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial failure took %v, deadline was 250ms", elapsed)
	}
	waitGoroutines(t, base)
}

func TestTCPCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	trs := dialMesh(t, 3)
	go trs[0].Send(1, Tag{A: 1}, []float32{1})
	trs[1].Recv(0, Tag{A: 1})
	for _, tr := range trs {
		tr.Close()
	}
	waitGoroutines(t, base)
}

func TestTCPRecvTimeoutCounts(t *testing.T) {
	trs := dialMesh(t, 2)
	_, err := trs[0].RecvTimeout(1, Tag{A: 1}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if got := trs[0].CommStats().Faults(1).Timeouts; got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

func TestStatsStringIncludesFaults(t *testing.T) {
	s := newStats()
	s.record(KindWeight, 10, 4)
	s.recordRetransmit(1, 3)
	s.recordDup(1)
	out := s.String()
	if want := "peer1[rtx=3 to=0 rc=0 hb=0 crc=0 dup=1 stale=0]"; !contains(out, want) {
		t.Fatalf("stats string %q missing %q", out, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
