package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/bench/trace"
)

// jobView is the part of satserved's job JSON the benchmark reads.
type jobView struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Error   string `json:"error"`
	Result  *struct {
		Verdict        string `json:"verdict"`
		Decided        bool   `json:"decided"`
		Model          []int  `json:"model"`
		Counterexample []bool `json:"counterexample"`
		Depth          int    `json:"depth"`
		Conflicts      int64  `json:"conflicts"`
		Cached         bool   `json:"cached"`
		Proof          *struct {
			Checker   string `json:"checker"`
			DRAT      string `json:"drat"`
			Deletions int    `json:"deletions"`
		} `json:"proof"`
	} `json:"result"`
}

// remoteTrace is the daemon's GET /v1/jobs/{id}/trace body (obs.View).
type remoteTrace struct {
	StartUnixUS int64 `json:"start_unix_us"`
	DurUS       int64 `json:"dur_us"`
	Spans       []struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
		Attrs   []struct {
			K string `json:"k"`
			V string `json:"v"`
		} `json:"attrs"`
	} `json:"spans"`
}

// phases sums the root's direct children by name, in milliseconds, as
// obs.View.PhaseTotals does, and returns the certify span alongside.
func (t *remoteTrace) phases() (byName map[string]float64, certifyMS float64) {
	byName = map[string]float64{}
	for _, s := range t.Spans {
		if s.DurUS < 0 {
			continue
		}
		if s.Parent == 1 {
			byName[s.Name] += float64(s.DurUS) / 1000
		}
		if s.Name == "certify" {
			certifyMS += float64(s.DurUS) / 1000
		}
	}
	return byName, certifyMS
}

// solverCPU sums the synthetic solver/<phase> spans by phase, in ms.
func (t *remoteTrace) solverCPU() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.Spans {
		if len(s.Name) > 7 && s.Name[:7] == "solver/" && s.DurUS > 0 {
			out[s.Name[7:]] += float64(s.DurUS) / 1000
		}
	}
	return out
}

func (t *remoteTrace) remoteSpans() []trace.Remote {
	out := make([]trace.Remote, 0, len(t.Spans))
	for _, s := range t.Spans {
		if s.DurUS < 0 {
			continue
		}
		cpu := false
		for _, a := range s.Attrs {
			if a.K == "cpu" {
				cpu = true
			}
		}
		out = append(out, trace.Remote{ID: s.ID, Parent: s.Parent, Name: s.Name, StartUS: s.StartUS, DurUS: s.DurUS, CPU: cpu})
	}
	return out
}

// httpStatus is an op-level failure class read off the response code.
type httpStatus int

const (
	httpOK httpStatus = iota
	httpShed
	httpFailed
	httpErrored
)

// post sends body and returns the response body, the owner header and
// the failure class.
func post(client *http.Client, url string, body []byte) ([]byte, string, httpStatus) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", httpErrored
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	owner := resp.Header.Get("X-Satserved-Owner")
	switch {
	case err != nil:
		return nil, owner, httpErrored
	case resp.StatusCode == http.StatusTooManyRequests:
		return out, owner, httpShed
	case resp.StatusCode != http.StatusOK:
		return out, owner, httpFailed
	}
	return out, owner, httpOK
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readBatch decodes an NDJSON batch response into per-index job views.
func readBatch(body []byte, n int) ([]*jobView, error) {
	out := make([]*jobView, n)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item struct {
			Index int `json:"index"`
			jobView
		}
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, err
		}
		if item.Index < 0 || item.Index >= n {
			return nil, fmt.Errorf("batch line with index %d of %d", item.Index, n)
		}
		v := item.jobView
		out[item.Index] = &v
	}
	for i, v := range out {
		if v == nil {
			return nil, fmt.Errorf("batch item %d missing from the stream", i)
		}
	}
	return out, sc.Err()
}

// newHTTPClient returns a keep-alive client holding up to conns idle
// connections per replica.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}
