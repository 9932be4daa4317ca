package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/fleet"
)

// statusWriter captures the status code and body size a handler wrote, for
// the logging/metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// knownRoutes bounds the cardinality of the path label: anything else
// (404s, probe scans, pprof) aggregates under "other".
var knownRoutes = map[string]bool{
	"/stats":   true,
	"/query":   true,
	"/explain": true,
	"/terms":   true,
	"/phrase":  true,
	"/metrics": true,
	"/healthz": true,
	"/readyz":  true,
	"/docs":    true,
}

// admissionExempt lists the endpoints admission control never sheds:
// probes must answer while the tier is overloaded (that is their job),
// and /metrics is how operators see the overload.
var admissionExempt = map[string]bool{
	"/healthz": true,
	"/readyz":  true,
	"/metrics": true,
}

// withAdmission applies the admission controller ahead of the handler
// tree: requests that fail the per-client token bucket or the global
// concurrency gate are rejected with typed, retryable 429/503 errors
// before they touch the backend. No-op when no controller is configured.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read per request (like QueryTimeout), so the controller can be
		// configured after the handler tree is built.
		a := s.Admission
		if a == nil || admissionExempt[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		release, err := a.Admit(r.Context(), clientKey(r))
		if err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, fleet.ErrRateLimited) {
				status = http.StatusTooManyRequests
			}
			errorJSON(w, status, err)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the requester for per-client rate limiting: the
// remote IP without the ephemeral port, so one client's connections share
// a bucket. (Deliberately not X-Forwarded-For: an unauthenticated header
// would let clients mint fresh buckets at will.)
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	// Document mutations carry the name in the path; collapse it so the
	// label stays bounded.
	if len(path) > len("/docs/") && path[:len("/docs/")] == "/docs/" {
		return "/docs/{name}"
	}
	return "other"
}

// withObservability wraps the handler tree with the request logging and
// HTTP metrics layer: every request records a latency histogram, a
// (method, path, status) counter, response bytes, and an in-flight gauge;
// when a Logger is configured, each request also emits one log line
// (method, path, status, duration, bytes, remote).
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := s.registry()
		inflight := reg.Gauge("tix_http_in_flight_requests")
		inflight.Add(1)
		defer inflight.Add(-1)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		func() {
			// Last line of defense: the shard facade already recovers engine
			// panics, but a handler bug must not take the connection (and
			// its log/metrics record) down with it.
			defer func() {
				if rec := recover(); rec != nil {
					reg.Counter("tix_http_panics_total").Inc()
					if s.Logger != nil {
						s.Logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
					}
					if sw.status == 0 {
						errorJSON(sw, http.StatusInternalServerError, fmt.Errorf("internal server error"))
					}
				}
			}()
			next.ServeHTTP(sw, r)
		}()
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		path := routeLabel(r.URL.Path)
		lbl := `{method="` + r.Method + `",path="` + path + `"}`
		reg.Histogram("tix_http_request_seconds" + lbl).Observe(elapsed.Seconds())
		reg.Counter("tix_http_response_bytes_total" + lbl).Add(sw.bytes)
		reg.Counter(`tix_http_requests_total{method="` + r.Method + `",path="` + path +
			`",status="` + itoa(sw.status) + `"}`).Inc()

		if s.Logger != nil {
			s.Logger.Printf("%s %s %d %s %dB %s",
				r.Method, r.URL.Path, sw.status, elapsed.Round(time.Microsecond), sw.bytes, r.RemoteAddr)
		}
	})
}

// itoa formats a status code without pulling strconv into the hot path's
// allocation profile for the common codes.
func itoa(code int) string {
	switch code {
	case 200:
		return "200"
	case 201:
		return "201"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 408:
		return "408"
	case 409:
		return "409"
	case 413:
		return "413"
	case 429:
		return "429"
	case 422:
		return "422"
	case 500:
		return "500"
	case 501:
		return "501"
	case 503:
		return "503"
	}
	b := [3]byte{byte('0' + code/100%10), byte('0' + code/10%10), byte('0' + code%10)}
	return string(b[:])
}
