package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServerEndToEnd drives the full HTTP surface — submit, list,
// status, cancel, cluster, metrics, health — against a live Driver
// loop, the same deployment shape cmd/wanify-serve runs.
func TestServerEndToEnd(t *testing.T) {
	p, sink := newTestPlane(t, 31, func(c *Config) { c.MaxRunning = 1 })
	d := NewDriver(p)
	d.TickS = 1
	d.Speed = 2000 // faster-than-life clock so the test drains quickly
	go d.Run()
	defer d.Close()

	ts := httptest.NewServer(NewServer(p, d, sink))
	defer ts.Close()

	postJob := func(spec JobSpec) (JobStatus, *http.Response) {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return st, resp
	}

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// Submit two jobs: one runs, one queues.
	st1, r1 := postJob(JobSpec{Workload: "terasort", InputGB: 20, Tenant: "web"})
	if r1.StatusCode != http.StatusAccepted || st1.ID != 1 || st1.State != "running" {
		t.Fatalf("submit 1: code=%d st=%+v", r1.StatusCode, st1)
	}
	st2, r2 := postJob(JobSpec{Workload: "wordcount", InputGB: 20, Tenant: "web"})
	if r2.StatusCode != http.StatusAccepted || st2.State != "queued" {
		t.Fatalf("submit 2: code=%d st=%+v", r2.StatusCode, st2)
	}

	// A malformed spec is a 400 with a JSON error envelope.
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"terasort"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-input spec: code=%d", resp.StatusCode)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if apiErr.Error == "" {
		t.Fatalf("400 carried no error envelope")
	}

	// Cancel the queued job over the API.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, st2.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v code=%d", err, resp.StatusCode)
	}
	var canceled JobStatus
	json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if canceled.State != "canceled" {
		t.Fatalf("cancel returned state %s", canceled.State)
	}

	// Unknown id → 404; double cancel → 409.
	resp, _ = http.Get(ts.URL + "/v1/jobs/99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: code=%d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, st2.ID), nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: code=%d", resp.StatusCode)
	}
	resp.Body.Close()

	// Poll until job 1 completes on the driver's clock.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/1")
		if err != nil {
			t.Fatalf("status poll: %v", err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "done" {
			if st.JCTSeconds <= 0 || st.CostUSD <= 0 {
				t.Fatalf("done job missing economics: %+v", st)
			}
			break
		}
		if st.State == "failed" {
			t.Fatalf("job failed: %q", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 still %s at deadline", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// List shows both records.
	resp, _ = http.Get(ts.URL + "/v1/jobs")
	var jobs []JobStatus
	json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if len(jobs) != 2 {
		t.Fatalf("list returned %d jobs, want 2", len(jobs))
	}

	// Cluster snapshot reflects the accounting.
	resp, _ = http.Get(ts.URL + "/v1/cluster")
	var cs ClusterStatus
	json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if cs.DCs == 0 || cs.VMs == 0 || cs.Slots != 1 {
		t.Fatalf("cluster shape: %+v", cs)
	}
	if cs.Done != 1 || cs.Canceled != 1 {
		t.Fatalf("cluster accounting: %+v", cs)
	}

	// /metrics serves the Graphite buffer and every line is well-formed.
	resp, _ = http.Get(ts.URL + "/metrics")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: code=%d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("metrics endpoint empty")
	}
	for _, ln := range lines {
		if !ValidLine(ln) {
			t.Fatalf("metrics served invalid line %q", ln)
		}
	}
}

// TestSubmitRejectsOversizeBody checks the submit body cap: a spec
// whose body runs past maxSpecBytes is answered 413 before anything
// reaches the plane.
func TestSubmitRejectsOversizeBody(t *testing.T) {
	p, sink := newTestPlane(t, 31, nil)
	d := NewDriver(p)
	go d.Run()
	defer d.Close()
	srv := NewServer(p, d, sink)

	var before PlaneStats
	d.Do(func() { before = p.Stats() })
	body := `{"workload":"terasort","input_gb":20,"tenant":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize spec: code=%d body=%s", rec.Code, rec.Body.String())
	}
	var apiErr apiError
	if err := json.NewDecoder(rec.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("413 carried no error envelope: %v", err)
	}
	var after PlaneStats
	d.Do(func() { after = p.Stats() })
	if after != before {
		t.Fatalf("oversize spec changed the plane: %+v -> %+v", before, after)
	}
}
