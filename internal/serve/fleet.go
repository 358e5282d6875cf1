package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Fleet routing headers.
const (
	// HeaderOwner is set on every routed submission response: the base
	// URL of the replica that owns (and served, absent a fallback) the
	// job's ring position. Clients and health checks can use it to
	// learn the fleet's view of ownership without a separate endpoint.
	HeaderOwner = "X-Satserved-Owner"
	// HeaderForwarded marks a peer-forwarded submission with the
	// forwarding replica's identity. A replica NEVER re-forwards a
	// request carrying it: when two replicas disagree about ownership
	// (mismatched -peers configs mid-rollout), the disagreement must
	// degrade to a redundant local solve, not a forwarding cycle.
	HeaderForwarded = "X-Satserved-Forwarded"
)

// Fleet is the sharded-serving layer: a consistent-hash ring over the
// replicas' advertised base URLs, routing every cacheable job to the
// one replica that owns its canonical fingerprint. With all replicas
// agreeing on the member list, an identical formula submitted anywhere
// in the fleet lands on the same owner — so the owner's result cache
// and singleflight coalescing become fleet-wide: one solve, no matter
// which replica each client happened to hit.
//
// Ownership is advisory, never load-bearing for correctness: a replica
// that cannot reach the owner solves locally (counted in
// LocalFallbacks), and a forwarded request is always served where it
// lands. The worst failure mode is a duplicated solve.
type Fleet struct {
	self   string
	ring   *store.Ring
	client *http.Client

	forwards  atomic.Int64
	fwdErrs   atomic.Int64
	fallbacks atomic.Int64
}

// NewFleet builds the routing layer for one replica. self is this
// replica's advertised base URL exactly as it appears in every
// replica's peer list (ring positions hash the member STRINGS, so
// "http://a:1" and "http://a:1/" are different members); peers lists
// the other replicas' base URLs (listing self again is harmless — the
// ring deduplicates). client is the forwarding HTTP client (nil = a
// default with a 10s dial-and-headers budget; job wait time is bounded
// by the request context, not the client).
func NewFleet(self string, peers []string, client *http.Client) (*Fleet, error) {
	if self == "" {
		return nil, fmt.Errorf("serve: fleet needs an advertised self URL")
	}
	for _, m := range append([]string{self}, peers...) {
		u, err := url.Parse(m)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("serve: fleet member %q is not an absolute base URL", m)
		}
	}
	if client == nil {
		// No overall Timeout: a sync forward legitimately waits for the
		// peer's solve, bounded by the incoming request context.
		client = &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 10 * time.Second}}
	}
	members := append(append([]string(nil), peers...), self)
	return &Fleet{self: self, ring: store.NewRing(members, 0), client: client}, nil
}

// Self returns this replica's advertised base URL.
func (f *Fleet) Self() string { return f.self }

// Owner returns the base URL of the replica owning key.
func (f *Fleet) Owner(key []byte) string { return f.ring.Owner(key) }

// FleetStats snapshots the routing counters for Stats / metrics.
type FleetStats struct {
	// Members is the ring size (self included).
	Members int
	// Forwards counts submissions proxied to their owner; ForwardErrors
	// counts forward attempts that failed at the transport;
	// LocalFallbacks counts jobs solved locally after such a failure.
	Forwards, ForwardErrors, LocalFallbacks int64
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Members:        len(f.ring.Members()),
		Forwards:       f.forwards.Load(),
		ForwardErrors:  f.fwdErrs.Load(),
		LocalFallbacks: f.fallbacks.Load(),
	}
}

// routeSubmit applies fleet routing to a decoded submission whose raw
// JSON body is body. It reports true when the request was fully
// answered by the owning peer; false hands the job to the local
// scheduler — because this replica owns it, routing does not apply (no
// fleet, NoCache, already forwarded), or the forward failed and local
// solving is the fallback. The ring position is the job's cache key
// (for DIMACS the formula fingerprint, so syntactic variants route to
// the same owner); computing it parses the spec, and that ingest is
// returned for the local submit to reuse, nil when routing parsed
// nothing. A spec that fails to parse has no position: the local
// submit answers its 400 from the returned ingest.
//
// The owner parses a forwarded job again: it does not trust a key
// computed elsewhere. On a local fallback the job's parse tile also
// covers the failed forward, since the trace is anchored where the
// routing parse began.
func (s *Server) routeSubmit(w http.ResponseWriter, r *http.Request, req *submitRequest, body []byte) (bool, *ingest) {
	f := s.fleet
	if f == nil || req.NoCache {
		return false, nil
	}
	if r.Header.Get(HeaderForwarded) != "" {
		// Loop prevention: forwarded jobs are served where they land.
		w.Header().Set(HeaderOwner, f.self)
		return false, nil
	}
	in := req.Spec.ingest()
	if in.err != nil {
		return false, in
	}
	owner := f.Owner(in.key[:])
	w.Header().Set(HeaderOwner, owner)
	if owner == f.self {
		return false, in
	}
	if s.forwardSubmit(w, r, owner, body) {
		return true, nil
	}
	f.fallbacks.Add(1)
	return false, in
}

// forwardSubmit proxies the submission body, byte for byte as received,
// to its owner and relays the response verbatim (status, Content-Type,
// Retry-After, body — a 429 from the owner is a real answer, not a
// transport failure). It reports false only when the owner could not
// be reached and the caller should solve locally instead.
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	f := s.fleet
	hreq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		f.fwdErrs.Add(1)
		return false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(HeaderForwarded, f.self)
	resp, err := f.client.Do(hreq)
	if err != nil {
		f.fwdErrs.Add(1)
		// When the CLIENT is what died (its context cancelled the
		// forward), there is nobody left to answer — claim the request
		// handled rather than solving locally for no one.
		return r.Context().Err() != nil
	}
	defer resp.Body.Close()
	f.forwards.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}
