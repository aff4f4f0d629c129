"""Golden pins of the ISS: exact architectural state after known runs.

Each pin is the complete observable outcome of a run — cycles,
instructions, PC, flags, registers, halt state, console records,
syscall counts and a digest of all memory — recorded from the
straightforward one-instruction-at-a-time interpreter. Words are
compared as Python ints: the vocoder pokes numpy integers into target
memory, and their repr is not part of the contract. Any semantic
drift in the execution loop (cycle accounting, interrupt timing, flag
updates, trap stacking, MMIO) changes at least one field.

Run this file as a script to print the current fingerprints; update the
pins only when a change of ISS semantics is intended.
"""

import hashlib

from repro.apps.vocoder import impl
from repro.synthesis import (
    ISS,
    SYS_EXIT,
    SYS_GETTICKS,
    SYS_SEM_POST,
    SYS_SEM_WAIT,
    SYS_SLEEP,
    assemble,
    build_kernel_image,
)
from repro.synthesis.isa import IRQ_EXTERNAL

# A timer-driven kernel image with three tasks: ``worker`` sleeps on the
# tick, runs every ALU/memory/stack/control opcode on signed operands and
# posts a semaphore; ``consumer`` first waits for the external interrupt
# (semaphore 0), then for each post; ``spinner`` burns cycles at low
# priority so ticks preempt it. A device at 0xFF10 is read and written.
MIXED_APP = """
.equ CONSOLE, 0xFF02
.equ HALTREG, 0xFF03
.equ CYCLES,  0xFF01
.equ DEV,     0xFF10
worker:
    ldi r5, 4
w_loop:
    ldi r2, 1
    syscall {sleep}
    ldi r1, -77
    ldi r3, 13
    add r4, r1, r3
    sub r4, r4, r3
    mul r6, r1, r3
    div r7, r6, r3
    and r8, r1, r3
    or r8, r8, r1
    xor r8, r8, r3
    ldi r9, 3
    shl r10, r1, r9
    shr r10, r10, r9
    muli r11, r1, -5
    addi r11, r11, 1000
    cmp r1, r3
    bge w_never
    cmpi r3, 13
    bne w_never
    beq w_eq
    jmp w_never
w_eq:
    blt w_never
    ble w_le
    jmp w_never
w_le:
    push r7
    pop r12
    mov r13, r12
    call w_sub
    ldi r9, w_back
    jr r9
w_sub:
    ldi r9, DEV
    ld r10, [r9]
    addi r10, r10, 5
    st r10, [r9 + 0]
    ret
w_back:
    ldi r9, CYCLES
    ld r10, [r9]
    ldi r9, 0x3000
    st r10, [r9 + 1]
    st r11, [r9 + 2]
    ld r8, [r9 + 2]
    ldi r9, CONSOLE
    st r8, [r9]
    di
    ei
    ldi r2, 1
    syscall {post}
    subi r5, r5, 1
    bgt w_loop
    syscall {exit}
w_never:
    halt
consumer:
    ldi r2, 0
    syscall {wait}
    ldi r5, 4
c_loop:
    ldi r2, 1
    syscall {wait}
    syscall {ticks}
    ldi r9, CONSOLE
    st r2, [r9]
    subi r5, r5, 1
    bgt c_loop
    ldi r9, HALTREG
    ldi r10, 3
    st r10, [r9]
spinner:
    ldi r5, 100000
s_loop:
    subi r5, r5, 1
    nop
    bgt s_loop
    syscall {exit}
""".format(sleep=SYS_SLEEP, post=SYS_SEM_POST, wait=SYS_SEM_WAIT,
           ticks=SYS_GETTICKS, exit=SYS_EXIT)


class Latch:
    """Device register: reads return the last write, doubled."""

    def __init__(self):
        self.value = 21

    def read(self, iss):
        return self.value

    def write(self, iss, value):
        self.value = value * 2


def fingerprint(iss):
    return {
        "cycles": iss.cycles,
        "instructions": iss.instructions,
        "pc": iss.pc,
        "flags": iss.flags,
        "regs": [int(value) for value in iss.regs],
        "halted": iss.halted,
        "exit_code": iss.exit_code,
        "console": list(iss.console),
        "syscall_counts": dict(sorted(iss.syscall_counts.items())),
        "memory_sha256": hashlib.sha256(repr([
            word if isinstance(word, tuple) else int(word)
            for word in iss.memory
        ]).encode()).hexdigest(),
    }


def _mixed_iss():
    source = build_kernel_image(
        [("worker", 1), ("consumer", 2), ("spinner", 8)],
        timer_period=700, ext_sem=0, app_asm=MIXED_APP,
    )
    return ISS(assemble(source), devices={0xFF10: Latch()})


def run_mixed(chunk):
    """Boot, run 5000 cycles, raise the external IRQ, finish in chunks.

    ``chunk=1`` drives the whole run through :meth:`ISS.step`.
    """
    iss = _mixed_iss()
    while iss.cycles < 5000:
        if chunk == 1:
            iss.step()
        else:
            iss.run(max_cycles=5000 - iss.cycles)
    iss.raise_irq(IRQ_EXTERNAL)
    for _ in range(2_000_000):
        if iss.halted:
            break
        if chunk == 1:
            iss.step()
        else:
            iss.run(max_cycles=chunk)
    return iss


def run_vocoder(monkeypatch):
    """``run_implementation(n_frames=3)`` plus the ISS it ran on."""
    built = []
    original = impl.build_vocoder_program

    def capture(n_frames):
        iss, program = original(n_frames)
        built.append(iss)
        return iss, program

    monkeypatch.setattr(impl, "build_vocoder_program", capture)
    result = impl.run_implementation(n_frames=3)
    (iss,) = built
    return result, iss


MIXED_PIN = {
    "cycles": 8164,
    "instructions": 4886,
    "pc": 586,
    "flags": 5,
    "regs": [0, 6, 10, 0, 0, 0, 0, 0, 0, 65283, 3, 0, 0, 0, 60928, 0],
    "halted": True,
    "exit_code": 3,
    "console": [(1203, 1385), (2022, 1385), (3304, 1385), (4123, 1385),
                (6180, 7), (6839, 8), (7498, 9), (8157, 10)],
    "syscall_counts": {2: 1, 3: 4, 4: 5, 5: 4, 6: 4},
    "memory_sha256":
        "ca200cffc3a682c467e8e58b5cbcdf9c725f2d18f872dfeaf481201cc030b99a",
}

VOCODER_PIN = {
    "cycles": 207621,
    "instructions": 136348,
    "pc": 569,
    "flags": 5,
    "regs": [0, 3, 3, 0, 885, 8608, 65283, 0, 0, 0, 0, 0, 0, 0, 60928, 0],
    "halted": True,
    "exit_code": 0,
    "console": [(33905, 1), (49614, 2), (113588, 1), (127613, 2),
                (193589, 1), (207614, 2)],
    "syscall_counts": {2: 1, 3: 3, 4: 6, 5: 3},
    "memory_sha256":
        "c9e483e8fcd1f95638fe196368fa982dd7c5cdf02756b78bfc8146eda854f29c",
}

VOCODER_DELAYS_NS = [12403500, 11903250, 11903500]


def test_mixed_kernel_program_matches_pin():
    assert fingerprint(run_mixed(chunk=1_000_000)) == MIXED_PIN


def test_mixed_program_independent_of_run_chunking():
    for chunk in (997, 1):
        assert fingerprint(run_mixed(chunk)) == MIXED_PIN, chunk


def test_vocoder_implementation_matches_pin(monkeypatch):
    result, iss = run_vocoder(monkeypatch)
    assert fingerprint(iss) == VOCODER_PIN
    assert result.delays_ns == VOCODER_DELAYS_NS
    assert result.extra["cycles"] == VOCODER_PIN["cycles"]
    assert result.extra["instructions"] == VOCODER_PIN["instructions"]


if __name__ == "__main__":
    import pprint

    import pytest

    print("MIXED_PIN = ", end="")
    pprint.pprint(fingerprint(run_mixed(chunk=1_000_000)), sort_dicts=False)
    with pytest.MonkeyPatch.context() as patch:
        result, iss = run_vocoder(patch)
    print("\nVOCODER_PIN = ", end="")
    pprint.pprint(fingerprint(iss), sort_dicts=False)
    print(f"\nVOCODER_DELAYS_NS = {result.delays_ns!r}")
