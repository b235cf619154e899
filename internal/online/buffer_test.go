package online

import (
	"bytes"
	"testing"

	"repro/internal/msd"
	"repro/internal/volume"
)

func phantoms(t testing.TB, n int, seed int64) []*volume.Sample {
	t.Helper()
	cfg := msd.Config{Cases: n, D: 8, H: 8, W: 8, Seed: seed}
	out := make([]*volume.Sample, n)
	for i := range out {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func names(items []*volume.Sample) []string {
	out := make([]string, len(items))
	for i, s := range items {
		out[i] = s.Name
	}
	return out
}

func TestBufferBoundedAndDeterministic(t *testing.T) {
	feed := phantoms(t, 24, 7)
	run := func() []string {
		b, err := NewReplayBuffer(6, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range feed {
			b.Add(s)
		}
		if b.Len() != 6 {
			t.Fatalf("buffer holds %d, capacity 6", b.Len())
		}
		if b.Seen() != 24 {
			t.Fatalf("seen %d, want 24", b.Seen())
		}
		return names(b.Snapshot())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction not deterministic: %v vs %v", a, b)
		}
	}
	// Eviction must actually churn: with 24 offers into 6 slots, at least
	// one post-fill sample should be resident.
	fresh := false
	first := map[string]bool{}
	for _, s := range feed[:6] {
		first[s.Name] = true
	}
	for _, n := range a {
		if !first[n] {
			fresh = true
		}
	}
	if !fresh {
		t.Fatalf("no post-fill sample ever admitted: %v", a)
	}
}

func TestBufferSeedChangesEviction(t *testing.T) {
	feed := phantoms(t, 32, 7)
	run := func(seed int64) []string {
		b, err := NewReplayBuffer(4, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range feed {
			b.Add(s)
		}
		return names(b.Snapshot())
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds kept identical contents: %v", a)
	}
}

func TestBufferSaveLoadResumesEviction(t *testing.T) {
	feed := phantoms(t, 30, 9)

	// Uninterrupted reference.
	ref, err := NewReplayBuffer(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range feed {
		ref.Add(s)
	}

	// Interrupted at item 17: save, reload into a fresh buffer, continue.
	b1, _ := NewReplayBuffer(5, 11)
	for _, s := range feed[:17] {
		b1.Add(s)
	}
	var saved bytes.Buffer
	if err := b1.Save(&saved, map[string][]float64{"ctrl:gen": {3}}); err != nil {
		t.Fatal(err)
	}
	b2, _ := NewReplayBuffer(5, 11)
	extra, err := b2.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	if v := extra["ctrl:gen"]; len(v) != 1 || v[0] != 3 {
		t.Fatalf("extra state lost: %v", extra)
	}
	if b2.Seen() != 17 {
		t.Fatalf("restored seen %d, want 17", b2.Seen())
	}
	for _, s := range feed[17:] {
		b2.Add(s)
	}

	got, want := names(b2.Snapshot()), names(ref.Snapshot())
	if len(got) != len(want) {
		t.Fatalf("restored buffer holds %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored eviction diverged: %v vs %v", got, want)
		}
	}
}

func TestBufferLoadValidates(t *testing.T) {
	feed := phantoms(t, 3, 9)
	b, _ := NewReplayBuffer(4, 11)
	for _, s := range feed {
		b.Add(s)
	}
	var saved bytes.Buffer
	if err := b.Save(&saved, nil); err != nil {
		t.Fatal(err)
	}
	raw := saved.Bytes()
	wrongCap, _ := NewReplayBuffer(8, 11)
	if _, err := wrongCap.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	wrongSeed, _ := NewReplayBuffer(4, 12)
	if _, err := wrongSeed.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	// Three samples cannot fit a buffer of two: rejected by the count.
	tooSmall, _ := NewReplayBuffer(2, 11)
	if _, err := tooSmall.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("more samples than capacity accepted")
	}
	if err := b.Save(&bytes.Buffer{}, map[string][]float64{"buffer:seen": {0}}); err == nil {
		t.Fatal("reserved extra key accepted")
	}
	if _, err := NewReplayBuffer(0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
