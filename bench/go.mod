module pstap/bench

go 1.22

require pstap v0.0.0

replace pstap => ../
