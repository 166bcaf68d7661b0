package route

// RouterHealth is the body of the router's own GET /healthz. Status is
// "ok", "no-leader" (reads fine, writes parked) or "no-backends"
// (nothing to route to). The router answers 200 in all three — it is
// the backends that are degraded, not the router.
type RouterHealth struct {
	Status   string `json:"status"`
	Healthy  int    `json:"healthy"`
	Backends int    `json:"backends"`
	Token    uint64 `json:"token"`
}

// RouterStats is the body of GET /routerz: the routing view — the read
// token, the leader and each backend's status. The fault-handling
// counters are ss_route_* series on /metrics.
type RouterStats struct {
	Token    uint64          `json:"token"`
	Leader   string          `json:"leader,omitempty"`
	Backends []BackendStatus `json:"backends"`
}
