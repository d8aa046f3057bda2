package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestAPI(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(svc.Mux(nil))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postSpec(t *testing.T, ts *httptest.Server, path string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestAPISubmitAndFetchResult(t *testing.T) {
	_, ts := newTestAPI(t, Config{Runner: &stubRunner{result: json.RawMessage(`{"cc":3.25}`)}})
	resp := postSpec(t, ts, "/jobs", specEval())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	job := decodeBody[Job](t, resp)
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Poll the result endpoint the way a client would: 409 + Retry-After
	// until done, then the raw result document.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		if r.StatusCode == http.StatusOK {
			doc := decodeBody[map[string]float64](t, r)
			r.Body.Close()
			if doc["cc"] != 3.25 {
				t.Fatalf("result = %v", doc)
			}
			break
		}
		if r.StatusCode != http.StatusConflict || r.Header.Get("Retry-After") == "" {
			t.Fatalf("pending result = %d (Retry-After %q), want 409 with Retry-After", r.StatusCode, r.Header.Get("Retry-After"))
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The job record itself.
	r, err := http.Get(ts.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer r.Body.Close()
	got := decodeBody[Job](t, r)
	if got.State != StateDone || got.ID != job.ID {
		t.Fatalf("job = %+v", got)
	}
}

func TestAPIBadRequests(t *testing.T) {
	_, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	// Each case is posted to /jobs as body and to /evaluate as eval.
	type badCase struct{ name, body, eval string }
	cases := []badCase{
		{"malformed JSON", `{`, `{`},
		{"unknown field", `{"kind":"evaluate","bogus":1}`, `{"kind":"evaluate","bogus":1}`},
		{"invalid spec", `{"kind":"nonsense"}`, `{"kind":"nonsense"}`},
	}
	for i, doc := range overflowingSpecs {
		// /evaluate gets the same body with a mapping, so only the
		// topology can make it invalid.
		cases = append(cases, badCase{fmt.Sprintf("overflowing generator %d", i), doc, strings.TrimSuffix(doc, "}") + `,"assign":[0],"m":1}`})
	}
	for i, doc := range oversizedSpecs {
		cases = append(cases, badCase{fmt.Sprintf("oversized count %d", i), doc, doc})
	}
	for _, c := range cases {
		for path, body := range map[string]string{"/jobs": c.body, "/evaluate": c.eval} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", path, c.name, err)
			}
			e := decodeBody[apiError](t, resp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Reason != "invalid" {
				t.Fatalf("%s %s = %d %+v, want 400 invalid", path, c.name, resp.StatusCode, e)
			}
		}
	}
	// Oversized body.
	big := fmt.Sprintf(`{"kind":"evaluate","network":{"pad":%q}}`, strings.Repeat("x", maxBodyBytes))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("oversized: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
}

func TestAPIUnknownJob(t *testing.T) {
	_, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
		r.Body.Close()
	}
}

func TestAPIFailedJobResult(t *testing.T) {
	svc, ts := newTestAPI(t, Config{Runner: &stubRunner{err: fmt.Errorf("kaboom")}})
	resp := postSpec(t, ts, "/jobs", specEval())
	job := decodeBody[Job](t, resp)
	waitState(t, svc, job.ID, StateFailed)
	r, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("failed result = %d, want 409", r.StatusCode)
	}
	e := decodeBody[apiError](t, r)
	if e.Reason != "failed" || e.Error != "kaboom" {
		t.Fatalf("error doc = %+v", e)
	}
}

func TestAPIListFilters(t *testing.T) {
	svc, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	alice := specEval()
	alice.Tenant = "alice"
	bob := specEval()
	bob.Tenant = "bob"
	a, err := svc.Submit(alice)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := svc.Submit(bob); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, svc, a.ID, StateDone)

	r, err := http.Get(ts.URL + "/jobs?tenant=alice")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer r.Body.Close()
	list := decodeBody[struct {
		Jobs []Job `json:"jobs"`
	}](t, r)
	if len(list.Jobs) != 1 || list.Jobs[0].Spec.Tenant != "alice" {
		t.Fatalf("tenant filter = %+v", list.Jobs)
	}
	// Listings are an index: results are stripped even for done jobs.
	if list.Jobs[0].Result != nil {
		t.Fatalf("listing must strip results, got %s", list.Jobs[0].Result)
	}

	r2, err := http.Get(ts.URL + "/jobs?state=done&tenant=bob")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer r2.Body.Close()
	both := decodeBody[struct {
		Jobs []Job `json:"jobs"`
	}](t, r2)
	for _, j := range both.Jobs {
		if j.State != StateDone || j.Spec.Tenant != "bob" {
			t.Fatalf("combined filter leaked %+v", j)
		}
	}
}

func TestAPIBackpressureHasRetryAfterHeader(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestAPI(t, Config{
		Runner:  &stubRunner{block: block},
		Workers: 1,
		Limits:  Limits{QueueDepth: 1},
	})
	// Fill the queue, then expect 429 with a Retry-After header.
	var last *http.Response
	for i := 0; i < 4; i++ {
		last = postSpec(t, ts, "/jobs", specEval())
		if last.StatusCode == http.StatusTooManyRequests {
			break
		}
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue never filled: last = %d", last.StatusCode)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	e := decodeBody[apiError](t, last)
	if e.Reason != "queue_full" || e.RetryAfter <= 0 {
		t.Fatalf("429 doc = %+v", e)
	}
}

func TestAPIEvaluate(t *testing.T) {
	_, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	resp := postSpec(t, ts, "/evaluate", specEval())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d, want 200", resp.StatusCode)
	}
	res := decodeBody[EvaluateResult](t, resp)
	if res.Cc <= 0 {
		t.Fatalf("Cc = %v, want positive", res.Cc)
	}
}

func TestAPIHealthzVsReadyz(t *testing.T) {
	svc, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, r.StatusCode)
		}
		r.Body.Close()
	}
	if err := svc.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining: alive but not ready.
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", r.StatusCode)
	}
	r.Body.Close()
	r, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", r.StatusCode)
	}
	doc := decodeBody[readyzDoc](t, r)
	if doc.Ready || doc.Reason != "draining" {
		t.Fatalf("readyz doc = %+v", doc)
	}
}

// The package-level acceptance test: 1000+ concurrent submissions
// against a small queue. Every request gets 202 or 429 (never a hang,
// never a 5xx), every accepted job reaches a terminal state exactly
// once, and no two accepted submissions share an ID.
func TestAPIThousandConcurrentSubmissionsLoseNothing(t *testing.T) {
	svc, ts := newTestAPI(t, Config{
		Runner:  &stubRunner{},
		Workers: 4,
		Limits:  Limits{QueueDepth: 64},
	})
	const n = 1000
	type outcome struct {
		code int
		id   string
	}
	out := make(chan outcome, n)
	var wg sync.WaitGroup
	client := ts.Client()
	body, _ := json.Marshal(specEval())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				out <- outcome{code: -1}
				return
			}
			defer resp.Body.Close()
			o := outcome{code: resp.StatusCode}
			if resp.StatusCode == http.StatusAccepted {
				var j Job
				if err := json.NewDecoder(resp.Body).Decode(&j); err == nil {
					o.id = j.ID
				}
			}
			out <- o
		}()
	}
	wg.Wait()
	close(out)

	accepted := map[string]bool{}
	counts := map[int]int{}
	for o := range out {
		counts[o.code]++
		if o.code == http.StatusAccepted {
			if o.id == "" {
				t.Fatal("202 without a job ID")
			}
			if accepted[o.id] {
				t.Fatalf("duplicate job ID %s", o.id)
			}
			accepted[o.id] = true
		}
	}
	t.Logf("outcomes: %v", counts)
	if counts[-1] > 0 {
		t.Fatalf("%d transport errors", counts[-1])
	}
	if counts[http.StatusAccepted]+counts[http.StatusTooManyRequests] != n {
		t.Fatalf("every request must be 202 or 429, got %v", counts)
	}
	if counts[http.StatusAccepted] == 0 {
		t.Fatal("no request was accepted")
	}

	// Zero lost jobs: every accepted ID reaches done.
	deadline := time.Now().Add(30 * time.Second)
	for id := range accepted {
		for {
			j, ok := svc.Get(id)
			if !ok {
				t.Fatalf("accepted job %s vanished", id)
			}
			if j.State == StateDone {
				break
			}
			if j.State == StateFailed {
				t.Fatalf("accepted job %s failed: %s", id, j.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	st := svc.Stats()
	if int(st.Completed) != len(accepted) {
		t.Fatalf("completed %d != accepted %d", st.Completed, len(accepted))
	}
}
