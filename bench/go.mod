module memfp/bench

go 1.24

require memfp v0.0.0

replace memfp => ../
