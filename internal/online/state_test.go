package online

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/unet"
	"repro/internal/volume"
)

// modelHash hashes a model's parameters and auxiliary state bit for bit.
func modelHash(m *unet.UNet) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(bits uint64) {
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range m.Params() {
		for _, v := range p.Value.Data() {
			put(uint64(math.Float32bits(v)))
		}
	}
	aux := m.AuxState()
	keys := make([]string, 0, len(aux))
	for k := range aux {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range aux[k] {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// committed is what a resumed controller must reproduce of one commit.
type committed struct {
	step          string
	gen           int64
	buffer        string // sample names in buffer order
	seen          int64
	epoch, budget int
	sessStep      int
	live          uint64
	hasLast       bool
	last          uint64
}

func snapshot(step string, c *Controller) committed {
	s := committed{
		step:     step,
		gen:      c.gen,
		buffer:   strings.Join(names(c.cfg.Buffer.Snapshot()), " "),
		seen:     c.cfg.Buffer.Seen(),
		epoch:    c.sess.Epoch(),
		budget:   c.sess.EpochBudget(),
		sessStep: c.sess.Step(),
		live:     modelHash(c.live),
		hasLast:  c.hasLast,
	}
	if c.hasLast {
		s.last = modelHash(c.last)
	}
	return s
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStateFileResumesEveryCommit runs a scripted lifecycle — two
// feedbacks with no generation, a promoting tick, a feedback, a rejecting
// tick, a rollback and Close — and copies the state directory after each
// commit, as a crash right after it would leave it. A fresh controller over
// each copy resumes to that commit's generation, buffer, session cursor and
// live/last-good weights, and ignores a truncated temp file beside the
// state file (a crash inside the next commit). The first copy is a
// controller killed after one feedback, before any generation.
func TestStateFileResumesEveryCommit(t *testing.T) {
	dir := t.TempDir()
	mutate := func(cfg *Config) {
		cfg.Dir = dir
		cfg.RollbackMargin = 0.95 // no rollback until the script asks for one
	}
	c, _ := testController(t, mutate)
	shadowDice := 0.9
	c.evalFn = func(m *unet.UNet, _ []*volume.Sample) (float64, error) {
		if m == c.shadow {
			return shadowDice, nil
		}
		return 0.5, nil
	}
	fb := phantoms(t, 3, 31)

	var wants []committed
	var dirs []string
	commit := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		wants = append(wants, snapshot(step, c))
		dirs = append(dirs, copyDir(t, dir))
	}
	tick := func(step string) {
		t.Helper()
		_, err := c.Tick()
		commit(step, err)
	}

	commit("feedback 1", c.Feedback(fb[0]))
	commit("feedback 2", c.Feedback(fb[1]))
	tick("promoting tick")
	if st := c.Stats(); st.Promotions != 1 || !st.HasLastGood {
		t.Fatalf("the tick did not promote: %+v", st)
	}
	// The live model now scores 0.3 on feedback: 0.6 below the promoted
	// 0.9, inside the 0.95 rollback margin.
	c.probeFn = func(*unet.UNet, *volume.Sample) (float64, float64, error) { return 0.3, 0.5, nil }
	commit("feedback 3", c.Feedback(fb[2]))
	shadowDice = 0.1
	tick("rejecting tick")
	if st := c.Stats(); st.Rejections != 1 || st.Rollbacks != 0 {
		t.Fatalf("the tick did not reject: %+v", st)
	}
	c.cfg.RollbackMargin = 0.1 // the same feedback now triggers a rollback
	tick("rollback")
	if st := c.Stats(); st.Rollbacks != 1 || st.HasLastGood {
		t.Fatalf("the tick did not roll back: %+v", st)
	}
	commit("close", c.Close())

	for i, want := range wants {
		d := dirs[i]
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != stateFile {
			t.Fatalf("%s: state directory holds %v, want only %s", want.step, entries, stateFile)
		}
		data, err := os.ReadFile(filepath.Join(d, stateFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, stateFile+".tmp"), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		r, _ := testController(t, func(cfg *Config) { cfg.Dir = d })
		if !r.Resumed() {
			t.Fatalf("%s: the controller did not resume", want.step)
		}
		if got := snapshot(want.step, r); got != want {
			t.Errorf("%s: resumed to %+v, want %+v", want.step, got, want)
		}
	}
	if w := wants[0]; w.gen != 0 || w.seen != 1 {
		t.Fatalf("the first commit is not one feedback before any generation: %+v", w)
	}
}

// TestOldStateLayoutRejected: a directory in the four-file layout earlier
// versions wrote is refused with an error that names that layout.
func TestOldStateLayoutRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, oldLayoutFile), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf, _ := NewReplayBuffer(4, 1)
	_, err := NewController(Config{
		Net: tinyNet(), Loss: "dice", Optimizer: "sgd", LR: 0.05,
		Holdout: phantoms(t, 1, 7), Buffer: buf, Promoter: &fakePromoter{}, Dir: dir,
	})
	if err == nil || !strings.Contains(err.Error(), "old four-file state layout") {
		t.Fatalf("old layout: err %v", err)
	}
}

// FuzzReadState: arbitrary bytes, read as a state file and as one framed
// leading payload (the framing's CRC would otherwise stop almost every
// mutation before the sample count), must either fail with an error or
// restore a fresh controller. A restored controller's state must then
// write out, read back into another fresh controller and write out again
// byte for byte the same. The seed, testdata/promoted.ckpt, is the state
// file a tinyNet controller writes after one feedback and a promoting tick
// (gate stubbed at 0.9 against 0.5, as in TestPromotionAndTraceOrdering);
// it must restore. The other seeds are that file cut in half and a leading
// payload whose sample count far exceeds the buffer's capacity.
func FuzzReadState(f *testing.F) {
	valid, err := os.ReadFile("testdata/promoted.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	huge := record.NewFeatures() // a leading payload counting 2⁶² samples
	huge.AddInts("sample-stream", []int64{1 << 62})
	f.Add(huge.Marshal())

	holdout := phantoms(f, 1, 77)
	fresh := func(tb testing.TB) *Controller {
		buf, err := NewReplayBuffer(16, 3)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := NewController(Config{
			Net: tinyNet(), Loss: "dice", Optimizer: "sgd", LR: 0.05,
			Holdout: holdout, Buffer: buf, Promoter: &fakePromoter{}, Seed: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	if err := fresh(f).readState(bytes.NewReader(valid)); err != nil {
		f.Fatalf("the seed state file does not restore: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		record.NewWriter(&framed).Write(data)
		for _, in := range [][]byte{data, framed.Bytes()} {
			c := fresh(t)
			if c.readState(bytes.NewReader(in)) != nil {
				continue
			}
			var once, twice bytes.Buffer
			if err := c.writeState(&once); err != nil {
				t.Fatalf("a restored state does not write: %v", err)
			}
			again := fresh(t)
			if err := again.readState(bytes.NewReader(once.Bytes())); err != nil {
				t.Fatalf("a rewritten state does not read: %v", err)
			}
			if err := again.writeState(&twice); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatal("write → read → write changed the state file")
			}
		}
	})
}
