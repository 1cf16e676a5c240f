"""Neural-symbolic Sudoku: exact logic engine, shallow network with
constraint-aware losses, and an ablation experiment harness."""
