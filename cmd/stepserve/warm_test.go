package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/governor"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// newWarmTestApp builds a ready app over a tiny cache-armed server,
// the fixture the /cache/entry handler tests drive.
func newWarmTestApp(t *testing.T) (*app, *serve.Server, int) {
	t.Helper()
	m, err := buildServeModel("lenet3c1l", 4, 8, 1.5, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	cal := governor.LatencyModel{
		StepMACs: governor.StepCosts(m, 3),
		StepTime: []time.Duration{time.Nanosecond, time.Nanosecond, time.Nanosecond},
	}
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 16,
		Calibration: cal, DefaultDeadline: time.Hour,
		CacheEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	a := newApp(7)
	a.setReady(srv, m)
	return a, srv, m.InC * m.InH * m.InW
}

// TestCacheEntryEndpoint pins the replica side of the warming wire
// contract: GET /cache/entry serves a cached walk by hex key (404 when
// the key is cold, 400 on a malformed key), POST installs a
// transferred entry that then answers an /infer repeat as a zero-MAC
// hit, and the CacheWarmed counter surfaces through /stats.
func TestCacheEntryEndpoint(t *testing.T) {
	a, srv, imgLen := newWarmTestApp(t)
	mux := newMux(a)
	in := randomInput(tensor.NewRNG(99), imgLen)
	key := cache.KeyOf(in)

	get := func(path string) (int, []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.Bytes()
	}

	if code, _ := get("/cache/entry?key=zzz"); code != http.StatusBadRequest {
		t.Fatalf("malformed key: got %d, want 400", code)
	}
	if code, _ := get("/cache/entry?key=" + cluster.FormatKey(key)); code != http.StatusNotFound {
		t.Fatalf("cold key: got %d, want 404", code)
	}

	// Populate via the real serving path, then export.
	res1, err := srv.Submit(serve.Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// The worker publishes to the cache just after it answers, so the
	// entry may land a moment after Submit returns.
	for wait := time.Now().Add(10 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		if _, ok := srv.CachePeek(key); ok {
			break
		}
	}
	code, body := get("/cache/entry?key=" + cluster.FormatKey(key))
	if code != http.StatusOK {
		t.Fatalf("warm key: got %d (%s), want 200", code, body)
	}
	var wire cluster.CacheEntryWire
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Key != cluster.FormatKey(key) || wire.Subnet != res1.Subnet || wire.State == nil {
		t.Fatalf("exported entry mismatch: key %s subnet %d state %v", wire.Key, wire.Subnet, wire.State != nil)
	}

	// Install the exported entry into a second, cold replica and serve
	// the same input there: the answer must be a cache hit, bitwise
	// equal to the original walk.
	b, srvB, _ := newWarmTestApp(t)
	muxB := newMux(b)
	rec := httptest.NewRecorder()
	muxB.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cache/entry", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("install: got %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if snap := srvB.Stats(); snap.CacheWarmed != 1 {
		t.Fatalf("CacheWarmed after install = %d, want 1", snap.CacheWarmed)
	}
	inJSON, _ := json.Marshal(in)
	rec = httptest.NewRecorder()
	muxB.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer",
		strings.NewReader(fmt.Sprintf(`{"input":%s,"deadline_ms":3600000}`, inJSON))))
	if rec.Code != http.StatusOK {
		t.Fatalf("infer after install: got %d (%s)", rec.Code, rec.Body.String())
	}
	var res2 cluster.InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.MACs != 0 {
		t.Fatalf("repeat on installed entry: hit=%v macs=%d, want a zero-MAC hit", res2.CacheHit, res2.MACs)
	}
	for i := range res1.Logits {
		if res1.Logits[i] != res2.Logits[i] {
			t.Fatalf("installed-entry logit[%d] = %v, original walk = %v", i, res2.Logits[i], res1.Logits[i])
		}
	}

	// Malformed install bodies are the sender's fault, not a 500.
	rec = httptest.NewRecorder()
	muxB.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cache/entry", strings.NewReader(`{"key":"nope"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad install key: got %d, want 400", rec.Code)
	}
}

// TestWarmFileRoundTrip pins restart warming's persistence: a hot set
// saved on drain loads back bit-identically, Prewarm replays it into
// the cache, and the missing-file fresh start is silent.
func TestWarmFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.json")
	if got := loadWarmFile(path); got != nil {
		t.Fatalf("missing warm file loaded %d inputs, want none", len(got))
	}
	if got := loadWarmFile(""); got != nil {
		t.Fatal("empty path must load nothing")
	}

	_, srv, imgLen := newWarmTestApp(t)
	rng := tensor.NewRNG(5)
	inputs := [][]float64{randomInput(rng, imgLen), randomInput(rng, imgLen)}
	saveWarmFile(path, inputs)
	back := loadWarmFile(path)
	if len(back) != len(inputs) {
		t.Fatalf("loaded %d inputs, want %d", len(back), len(inputs))
	}
	for i := range inputs {
		for j := range inputs[i] {
			if back[i][j] != inputs[i][j] {
				t.Fatalf("input[%d][%d] changed across the file round trip", i, j)
			}
		}
	}

	if served := srv.Prewarm(back, 0); served != len(back) {
		t.Fatalf("Prewarm served %d/%d persisted inputs", served, len(back))
	}
	for _, in := range back {
		res, err := srv.Submit(serve.Request{Input: in, Deadline: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.MACs != 0 {
			t.Fatalf("post-prewarm repeat: hit=%v macs=%d, want a zero-MAC hit", res.CacheHit, res.MACs)
		}
	}

	// Corrupt contents degrade to a fresh start, never a crash.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := loadWarmFile(path); got != nil {
		t.Fatal("corrupt warm file must load nothing")
	}
}
