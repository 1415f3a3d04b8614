"""Tick-data backtesting with asymmetric directional-change events,
HMM regime gating and Bayesian threshold tuning."""
