// Golden file: packages outside the request path are not ctxflow's
// business even when a context is in scope.
package batch

import (
	"context"

	"socialscope"
)

func Warm(ctx context.Context, eng *socialscope.Engine) {
	out, _ := eng.SearchCtx(context.Background(), "u", "q") // clean: out of scope
	_ = out
}
