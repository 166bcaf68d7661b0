module socialscope/bench

go 1.24

require socialscope v0.0.0

replace socialscope => ../
