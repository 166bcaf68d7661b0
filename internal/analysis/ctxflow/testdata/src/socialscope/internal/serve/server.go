// Golden file: HTTP handlers carry a context via *http.Request; every
// engine call must pass r.Context() (or a context derived from it).
package serve

import (
	"context"
	"net/http"

	"socialscope"
)

type Server struct {
	eng *socialscope.Engine
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	out, err := s.eng.SearchCtx(context.Background(), r.URL.Query().Get("user"), "q") // want `fresh context on a request path detaches from r\.Context\(\)'s deadline`
	_ = out
	_ = err
}

func (s *Server) handleSearchCtx(w http.ResponseWriter, r *http.Request) {
	out, err := s.eng.SearchCtx(r.Context(), r.URL.Query().Get("user"), "q") // clean
	_ = out
	_ = err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want `fresh context on a request path`
	_ = ctx
}

func (s *Server) flushLoop() {
	// Clean: no request in scope — background maintenance may own its
	// lifecycle.
	out, _ := s.eng.SearchCtx(context.Background(), "system", "warmup")
	_ = out
}

func (s *Server) register(mux *http.ServeMux) {
	mux.HandleFunc("/inline", func(w http.ResponseWriter, r *http.Request) {
		out, _ := s.eng.SearchCtx(context.TODO(), "u", "q") // want `fresh context on a request path detaches from r\.Context\(\)'s deadline`
		_ = out
	})
}
