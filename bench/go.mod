// The repo benchmark is its own module so that it builds from its own
// build file and stays out of the root module's ./... (tier-1 does not
// compile or run it). The replace pins it to the checkout it sits in;
// the csds/ import-path prefix is what lets it reach csds/internal/...
module csds/bench

go 1.24

require csds v0.0.0

replace csds => ../
