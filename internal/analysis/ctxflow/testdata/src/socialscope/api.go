// Golden file: the facade package is in ctxflow scope. Entry points
// take a context; a function with none in scope may mint one, but a
// ctx-taking path must thread its own.
package socialscope

import "context"

type Engine struct{}

func (e *Engine) SearchCtx(ctx context.Context, user, q string) ([]string, error) {
	return nil, nil
}

func (e *Engine) DiscoverTaggedCtx(ctx context.Context, tag string) []string { return nil }

func (e *Engine) Warm(user string) {
	// Clean: no context in scope, so nothing is being dropped.
	e.SearchCtx(context.Background(), user, "warmup")
}

func (e *Engine) QueryCtx(ctx context.Context, user, q string) ([]string, error) {
	hot := e.DiscoverTaggedCtx(context.Background(), q) // want `fresh context on a request path detaches from ctx's deadline`
	_ = hot
	return e.SearchCtx(ctx, user, q) // clean: the threaded context
}

func (e *Engine) refresh(ctx context.Context) error {
	bg := context.Background() // want `fresh context on a request path detaches from ctx's deadline`
	_ = bg
	return nil
}
