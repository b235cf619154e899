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
// JSON volumes (one window each) to /v1/segment back to back for about a
// second against a two-replica server whose queue holds one patch, so
// admission control turns requests away. Every response must be 200 or 503,
// at least one must be a 503 with a Retry-After of a second or more, every
// client must land at least one 200 (a client still without one keeps going
// past the second, up to a 10 s limit), and /metrics must count exactly the
// 200s in serve_requests_total and the 503s in serve_rejected_total.
func TestLoadSmoke(t *testing.T) {
	netCfg := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 1}
	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{
		Window:        patch.SlidingWindow{Patch: [3]int{16, 16, 16}, Stride: [3]int{16, 16, 16}},
		Replicas:      2,
		MaxBatch:      4,
		MaxQueue:      1,
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
	var oks, rejected, others, badRetry [clients]int
	var wg sync.WaitGroup
	start := time.Now()
	deadline, limit := start.Add(time.Second), start.Add(10*time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline) || oks[c] == 0 && now.Before(limit); now = time.Now() {
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
					rejected[c]++
					if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 1 {
						badRetry[c]++
					}
				default:
					others[c]++
				}
			}
		}()
	}
	wg.Wait()

	total, turnedAway := 0, 0
	for c := range clients {
		if others[c] != 0 || oks[c] < 1 || badRetry[c] != 0 {
			t.Errorf("client %d: %d ok, %d neither 200 nor 503, %d 503s without a Retry-After ≥ 1",
				c, oks[c], others[c], badRetry[c])
		}
		total += oks[c]
		turnedAway += rejected[c]
	}
	t.Logf("%d requests answered 200 (per client %v), %d answered 503 (per client %v), in %v",
		total, oks, turnedAway, rejected, time.Since(start).Round(time.Millisecond))
	if turnedAway == 0 {
		t.Error("no request was turned away: admission control never ran")
	}
	if got := scrape(t, ts.URL, "serve_requests_total"); got != total {
		t.Errorf("serve_requests_total %d, want the %d 200 responses", got, total)
	}
	if got := scrape(t, ts.URL, "serve_rejected_total"); got != turnedAway {
		t.Errorf("serve_rejected_total %d, want the %d 503 responses", got, turnedAway)
	}
}

// scrape reads one unlabelled counter from the /metrics page.
func scrape(t *testing.T, url, name string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int(n)
		}
	}
	t.Fatalf("no %s on /metrics", name)
	return 0
}
