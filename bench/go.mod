module janus/bench

go 1.24

require janus v0.0.0

replace janus => ../
