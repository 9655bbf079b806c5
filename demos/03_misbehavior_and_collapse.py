"""What happens when somebody breaks the rules of the loop.

Three ways to misuse the CTC and one legitimate bonus use:

* Bob skips his swap gate - the qubit comes back changed, the loop cannot
  close, and the branch collapses.
* Bob tries to tell his own past the outcome of his measurement by encoding
  it into the returning CTC qubit - same fate.
* Time on the loop must run parallel to lab time wherever they touch;
  recording a backward contact event is a causality error outright.
* Storage: an idle loop is a noiseless channel, so parking a state on it
  for many circulations is free.

Run:  python demos/03_misbehavior_and_collapse.py
"""

from ctcsim import (
    CausalityError,
    ProtocolConfig,
    Session,
    StateVector,
    run_session,
)

state = StateVector.qubit(0.6, 0.8)


def show(title, transcript):
    weak = transcript.final_verdicts["weak"]
    print(f"--- {title}")
    print(f"    collapse: {transcript.collapse_flag},  loop residual: {weak.residual:.3f}")
    tally = {entry.kind.value: entry.delta for entry in transcript.resource_entries}
    print(f"    resources touched: {tally}")
    print()


show("nominal run", run_session(ProtocolConfig(input_state=state, seed=5)))

show(
    "Bob skips his gate",
    run_session(ProtocolConfig(input_state=state, scenario="bob_skips", seed=5)),
)

t = run_session(ProtocolConfig(input_state=state, scenario="self_signal", seed=5))
show("Bob encodes his outcome into the returning qubit", t)
senders = [e["detail"].get("sender") for e in t.records.dicts() if e["kind"] == "message"]
print(f"    message senders in that transcript: {senders}")
print("    the backward message exists only in a collapsed branch\n")

show(
    "storage: 25 idle circulations before Bob's stage",
    run_session(ProtocolConfig(input_state=state, scenario="storage", storage_cycles=25, seed=5)),
)

print("--- chirality is enforced mechanically")
session = Session(ProtocolConfig(input_state=state, seed=5))
try:
    session.event("alice", "gate", {}, time_direction="backward")
except CausalityError as error:
    print(f"    backward contact event rejected: {error}")
session2 = Session(ProtocolConfig(input_state=state, seed=6))
session2.event("bob", "prepare", {})
try:
    session2.event("alice", "measurement", {})
except CausalityError as error:
    print(f"    Alice acting after Bob rejected:  {error}")
