package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/unet"
)

// TestLoadSmoke drives the HTTP API closed-loop: four clients post 16³
// JSON volumes to /v1/segment back to back for about a second against a
// two-replica server. Every response must be 200 or 503 (admission
// control), every client must land at least one 200, and
// serve_requests_total on /metrics must count exactly the 200s.
func TestLoadSmoke(t *testing.T) {
	netCfg := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 1}
	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{
		Window:        patch.SlidingWindow{Patch: [3]int{16, 16, 16}, Stride: [3]int{16, 16, 16}},
		Replicas:      2,
		MaxBatch:      4,
		InChannels:    netCfg.InChannels,
		ExtentDivisor: netCfg.MinVolume(),
		Telemetry:     reg,
	}, func() (serve.Model, error) { return unet.New(netCfg) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv, nil, reg, false))
	defer ts.Close()

	data := make([]float32, 4*16*16*16)
	for i := range data {
		data[i] = 0.5
	}
	body, err := json.Marshal(volumeJSON{Shape: []int{4, 16, 16, 16}, Data: data})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var oks, others [clients]int
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := http.Post(ts.URL+"/v1/segment", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					oks[c]++
				case http.StatusServiceUnavailable:
				default:
					others[c]++
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for c := range clients {
		if others[c] != 0 || oks[c] < 1 {
			t.Errorf("client %d: %d ok, %d neither 200 nor 503", c, oks[c], others[c])
		}
		total += oks[c]
	}
	t.Logf("%d requests answered 200 (per client %v)", total, oks)
	if got := requestsTotal(t, ts.URL); got != total {
		t.Fatalf("serve_requests_total %d, want the %d 200 responses", got, total)
	}
}

// requestsTotal scrapes serve_requests_total from the /metrics page.
func requestsTotal(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "serve_requests_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int(n)
		}
	}
	t.Fatal("no serve_requests_total on /metrics")
	return 0
}
