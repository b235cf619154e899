package allreduce

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// formAll wires an n-member topology over loopback listeners, one goroutine
// per member, and returns the formed topologies indexed by rank.
func formAll(t *testing.T, n, groupSize int, cfg NetConfig) []*Topology {
	t.Helper()
	lns := make([]net.Listener, n)
	members := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	tops := make([]*Topology, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tops[r], errs[r] = FormTopology(lns[r], members, r, groupSize, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("form rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tp := range tops {
			if tp != nil {
				tp.Close()
			}
		}
		for _, ln := range lns {
			ln.Close()
		}
	})
	return tops
}

func randNetBufs(n, size int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]float32, n)
	for i := range bufs {
		bufs[i] = make([]float32, size)
		for j := range bufs[i] {
			bufs[i][j] = rng.Float32()*2 - 1
		}
	}
	return bufs
}

func cloneBufs(bufs [][]float32) [][]float32 {
	out := make([][]float32, len(bufs))
	for i, b := range bufs {
		out[i] = append([]float32(nil), b...)
	}
	return out
}

// runAll executes fn concurrently on every topology and fails on any error.
func runAll(t *testing.T, tops []*Topology, fn func(tp *Topology) error) {
	t.Helper()
	errs := make([]error, len(tops))
	var wg sync.WaitGroup
	for r, tp := range tops {
		wg.Add(1)
		go func(r int, tp *Topology) {
			defer wg.Done()
			errs[r] = fn(tp)
		}(r, tp)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func assertBitEqual(t *testing.T, got, want [][]float32) {
	t.Helper()
	for r := range want {
		for i := range want[r] {
			if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
				t.Fatalf("rank %d elem %d: got %x want %x", r, i,
					math.Float32bits(got[r][i]), math.Float32bits(want[r][i]))
			}
		}
	}
}

// formFunc wires an n-member topology under groupSize and cfg.
type formFunc func(t *testing.T, n, groupSize int, cfg NetConfig) []*Topology

// transports are the links the collectives run over: loopback TCP, as
// between processes, and in-process channels.
var transports = []struct {
	name string
	form formFunc
}{
	{"tcp", formAll},
	{"local", func(_ *testing.T, n, groupSize int, cfg NetConfig) []*Topology {
		return LocalTopologies(n, groupSize, cfg)
	}},
}

// The layouts every collective is checked on: flat rings (group size 0),
// rings of single-member groups (1), even and ragged groups.
var (
	layoutWidths     = []int{1, 2, 3, 5, 8}
	layoutGroupSizes = []int{0, 1, 2, 3}
)

// forEachLayout runs fn as one subtest per transport × width × group size
// in groupSizes.
func forEachLayout(t *testing.T, groupSizes []int, fn func(t *testing.T, form formFunc, n, groupSize int)) {
	for _, tr := range transports {
		for _, n := range layoutWidths {
			for _, gs := range groupSizes {
				t.Run(fmt.Sprintf("%s/n%d/g%d", tr.name, n, gs), func(t *testing.T) { fn(t, tr.form, n, gs) })
			}
		}
	}
}

// reference sums bufs in place with the oracle for the layout: the flat Ring
// for group size 0, Hierarchical otherwise.
func reference(bufs [][]float32, groupSize int) error {
	if groupSize <= 0 {
		return Ring(bufs)
	}
	return Hierarchical(bufs, groupSize)
}

func TestWireRingMatchesInProcess(t *testing.T) {
	forEachLayout(t, []int{0}, func(t *testing.T, form formFunc, n, _ int) {
		tops := form(t, n, 0, NetConfig{Gen: 1, OpTimeout: 5 * time.Second})
		for _, size := range []int{1, 7, 64} {
			bufs := randNetBufs(n, size, int64(100*n+size))
			want := cloneBufs(bufs)
			if err := Ring(want); err != nil {
				t.Fatal(err)
			}
			runAll(t, tops, func(tp *Topology) error { return tp.AllReduce(bufs[tp.Rank()]) })
			assertBitEqual(t, bufs, want)
		}
	})
}

func TestWireHierarchicalMatchesInProcess(t *testing.T) {
	forEachLayout(t, []int{1, 2, 3}, func(t *testing.T, form formFunc, n, gs int) {
		bufs := randNetBufs(n, 33, int64(10*n+gs))
		want := cloneBufs(bufs)
		if err := Hierarchical(want, gs); err != nil {
			t.Fatal(err)
		}
		tops := form(t, n, gs, NetConfig{Gen: 2, OpTimeout: 5 * time.Second})
		runAll(t, tops, func(tp *Topology) error { return tp.AllReduce(bufs[tp.Rank()]) })
		assertBitEqual(t, bufs, want)
	})
}

func TestWireAverageMatchesInProcess(t *testing.T) {
	forEachLayout(t, layoutGroupSizes, func(t *testing.T, form formFunc, n, gs int) {
		bufs := randNetBufs(n, 29, int64(7*n+gs))
		want := cloneBufs(bufs)
		if err := reference(want, gs); err != nil {
			t.Fatal(err)
		}
		inv := 1 / float32(n)
		for _, b := range want {
			for i := range b {
				b[i] *= inv
			}
		}
		tops := form(t, n, gs, NetConfig{Gen: 3, OpTimeout: 5 * time.Second})
		runAll(t, tops, func(tp *Topology) error { return tp.AllReduceAverage(bufs[tp.Rank()]) })
		assertBitEqual(t, bufs, want)
	})
}

func TestGatherAll64Ordered(t *testing.T) {
	forEachLayout(t, layoutGroupSizes, func(t *testing.T, form formFunc, n, gs int) {
		tops := form(t, n, gs, NetConfig{Gen: 4, OpTimeout: 5 * time.Second})
		results := make([][]float64, n)
		runAll(t, tops, func(tp *Topology) error {
			got, err := tp.GatherAll64(float64(tp.Rank())*1.25 + 0.5)
			results[tp.Rank()] = got
			return err
		})
		for r, got := range results {
			if len(got) != n {
				t.Fatalf("rank %d: got %d values, want %d", r, len(got), n)
			}
			for i, v := range got {
				want := float64(i)*1.25 + 0.5
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("rank %d idx %d: got %v want %v", r, i, v, want)
				}
			}
		}
	})
}

// TestLocalTopologyCloseUnblocks: closing a member's links fails a peer
// blocked on them instead of hanging it.
func TestLocalTopologyCloseUnblocks(t *testing.T) {
	tops := LocalTopologies(2, 0, NetConfig{})
	done := make(chan error, 1)
	go func() { done <- tops[1].AllReduce(make([]float32, 8)) }()
	tops[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRingBroken) {
			t.Fatalf("got %v, want ErrRingBroken", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer of a closed in-process topology still blocked")
	}
}

// TestMultipleOpsOverOneTopology runs a sequence of mixed collectives,
// checking the op counter keeps frames of consecutive ops apart.
func TestMultipleOpsOverOneTopology(t *testing.T) {
	const n = 3
	tops := formAll(t, n, 0, NetConfig{Gen: 6, OpTimeout: 5 * time.Second})
	for round := 0; round < 4; round++ {
		bufs := randNetBufs(n, 17, int64(round))
		want := cloneBufs(bufs)
		if err := RingAverage(want); err != nil {
			t.Fatal(err)
		}
		runAll(t, tops, func(tp *Topology) error {
			if err := tp.AllReduceAverage(bufs[tp.Rank()]); err != nil {
				return err
			}
			_, err := tp.GatherAll64(float64(tp.Rank()))
			return err
		})
		assertBitEqual(t, bufs, want)
	}
}

// TestDeadPeerTimesOut checks that a silent member trips the per-op
// deadline on its neighbours with a classifiable, attributed error.
func TestDeadPeerTimesOut(t *testing.T) {
	const n = 3
	tops := formAll(t, n, 0, NetConfig{Gen: 7, OpTimeout: 300 * time.Millisecond})
	// Rank 1 never joins the collective.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, r := range []int{0, 2} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float32, 8)
			errs[r] = tops[r].AllReduce(buf)
		}(r)
	}
	wg.Wait()
	// Rank 2 receives from the silent rank 1 and must blame it.
	if errs[2] == nil {
		t.Fatal("rank 2: expected an error, got nil")
	}
	if !errors.Is(errs[2], ErrRingBroken) {
		t.Fatalf("rank 2: error %v does not wrap ErrRingBroken", errs[2])
	}
	if !IsTimeout(errs[2]) {
		t.Fatalf("rank 2: error %v is not a timeout", errs[2])
	}
	if s, ok := Suspect(errs[2]); !ok || s != 1 {
		t.Fatalf("rank 2: suspect = %d, %v; want 1, true", s, ok)
	}
	// Rank 0 also cannot finish: its recv side stalls behind rank 2's abort.
	if errs[0] == nil {
		t.Fatal("rank 0: expected an error, got nil")
	}
	if !errors.Is(errs[0], ErrRingBroken) {
		t.Fatalf("rank 0: error %v does not wrap ErrRingBroken", errs[0])
	}
}

// TestFormTimeout checks that a member that never comes up fails formation
// with the named error instead of hanging.
func TestFormTimeout(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	// Reserve an address nobody listens on.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	members := []string{ln0.Addr().String(), deadAddr}
	_, err = FormTopology(ln0, members, 0, 0, NetConfig{Gen: 8, FormTimeout: 400 * time.Millisecond})
	if !errors.Is(err, ErrFormTimeout) {
		t.Fatalf("got %v, want ErrFormTimeout", err)
	}
}

// TestStaleGenerationRejected checks that a dialer from an old membership
// generation cannot join a newer ring.
func TestStaleGenerationRejected(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	members := []string{ln0.Addr().String(), ln1.Addr().String()}

	var wg sync.WaitGroup
	var err0, err1, errStale error
	var top0, top1 *Topology
	wg.Add(3)
	go func() {
		defer wg.Done()
		top0, err0 = FormTopology(ln0, members, 0, 0, NetConfig{Gen: 9, FormTimeout: 3 * time.Second})
	}()
	go func() {
		defer wg.Done()
		top1, err1 = FormTopology(ln1, members, 1, 0, NetConfig{Gen: 9, FormTimeout: 3 * time.Second})
	}()
	go func() {
		defer wg.Done()
		// The stale dialer races the real one; the acceptor must reject it.
		c, err := Dial(members[0], DialOptions{Timeout: time.Second})
		if err != nil {
			return
		}
		c.Send(&Frame{Type: FrameHello, Gen: 3, Step: 1, Seq: RoleIntra}) // wrong gen
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Recv(); err == nil {
			errStale = errors.New("stale hello was acknowledged")
		}
		c.Close()
	}()
	wg.Wait()
	if err0 != nil || err1 != nil || errStale != nil {
		t.Fatalf("formation with stale dialer present: %v / %v / %v", err0, err1, errStale)
	}
	if top0 != nil {
		top0.Close()
	}
	if top1 != nil {
		top1.Close()
	}
}
