module aovlis/cmd/aovlis-bench

go 1.21

require aovlis v0.0.0

replace aovlis => ../..
