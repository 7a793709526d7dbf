// The benchmark is a module of its own, so `go build ./...` and
// `go test ./...` at the repository root neither build nor run it. Its
// module path sits under the program's, which is what lets it import the
// program's internal packages; the replace directive finds them in the
// checkout.
module github.com/fluentps/fluentps/bench

go 1.22

require github.com/fluentps/fluentps v0.0.0

replace github.com/fluentps/fluentps => ../
