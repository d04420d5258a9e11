package httpd

import (
	"time"

	"napel/internal/obs"
)

// statusClasses indexes status/100: index 0 aggregates anything exotic.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// RequestMetrics counts a daemon's completed requests by endpoint and
// status class, and times them by endpoint. Every series is resolved at
// construction, so the request path touches only lock-free handles, and
// every series appears from the first scrape at zero, which keeps the
// exposition deterministic.
type RequestMetrics struct {
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	classes  [len(statusClasses)]*obs.Counter
	duration *obs.Histogram
}

// NewRequestMetrics registers prefix_requests_total{endpoint,class} and
// prefix_request_duration_seconds{endpoint} on reg, with the given help
// texts, for each endpoint and for "other", where requests to any
// endpoint not listed are counted.
func NewRequestMetrics(reg *obs.Registry, prefix, countHelp, durationHelp string, endpoints ...string) *RequestMetrics {
	count := reg.CounterVec(prefix+"_requests_total", countHelp, "endpoint", "class")
	duration := reg.HistogramVec(prefix+"_request_duration_seconds", durationHelp, nil, "endpoint")
	m := &RequestMetrics{endpoints: make(map[string]*endpointMetrics, len(endpoints)+1)}
	for _, ep := range append(endpoints, "other") {
		em := &endpointMetrics{duration: duration.With(ep)}
		for i, class := range statusClasses {
			em.classes[i] = count.With(ep, class)
		}
		m.endpoints[ep] = em
	}
	return m
}

// Observe records one completed request.
func (m *RequestMetrics) Observe(endpoint string, status int, d time.Duration) {
	em, ok := m.endpoints[endpoint]
	if !ok {
		em = m.endpoints["other"]
	}
	class := status / 100
	if class < 0 || class >= len(em.classes) {
		class = 0
	}
	em.classes[class].Inc()
	em.duration.Observe(d.Seconds())
}

// Mean returns the mean latency of every request observed so far, or 0
// before the first.
func (m *RequestMetrics) Mean() time.Duration {
	var sum float64
	var n uint64
	for _, em := range m.endpoints {
		sum += em.duration.Sum()
		n += em.duration.Count()
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / float64(n) * float64(time.Second))
}
