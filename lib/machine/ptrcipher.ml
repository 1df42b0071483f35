(** Keyed in-place pointer cipher for the [cpi-crypt] backend.

    LIPPEN / CryptSan / PAC-style schemes keep sensitive pointers encrypted
    in ordinary memory instead of segregating them into a safe region: a
    per-run key is folded into every sensitive load and store, so an
    attacker who overwrites a ciphertext cell (or who writes a plaintext
    code address over one) obtains a garbled target after decryption — the
    hijack becomes a trap. There is no metadata table to desynchronize or
    drop, which is exactly the property the fault campaign's
    [Meta_drop]/[Store_desync] plans probe.

    The cipher is a 4-round unbalanced Feistel permutation over OCaml's
    native [int] (lo half: 31 bits, hi half: the remaining bits including
    the sign bit treated as data), so it is a bijection on the full value
    domain — decrypt (encrypt v) = v for every [v], including negative
    sentinel values. Zero is a fixed point by construction (see
    [encrypt]): zero-initialized memory still reads as a null pointer
    through the crypt path, matching the loader's zero-fill semantics. *)

let lo_bits = 31
let lo_mask = (1 lsl lo_bits) - 1

(* splitmix64-flavoured round function with the multipliers truncated to
   OCaml's native int range; only the result's low/hi window matters, the
   constants just need good diffusion. *)
let[@inline] round_f x k =
  let z = (x + k) * 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  z lxor (z lsr 27)

(** Derive the per-run key from the scheduler seed: the key is part of the
    run's deterministic identity, like the scheduler's PRNG stream. *)
let key_of_seed seed =
  let z = round_f (seed + 0x632BE59B) 0x14D049BB133111EB in
  let z = round_f z 0x16E8FEB86659FD93 in
  (* Never hand out the all-zero key: it would still permute (the Feistel
     rounds keep mixing), but a visibly non-trivial key keeps the "key is
     secret per run" story honest in dumps. *)
  if z = 0 then 0x5DEECE66D else z

(* One Feistel pass: xor the round function of one half into the other,
   alternating. Inverse applies the same xors in reverse order. The halves
   are split inline rather than through a pair, which would allocate on
   every sensitive load and store. *)
let[@inline] join lo hi = (hi lsl lo_bits) lor lo

let perm key v =
  let lo = v land lo_mask and hi = v lsr lo_bits in
  let hi = hi lxor (round_f lo (key + 1) lsr lo_bits) in
  let lo = (lo lxor round_f hi (key + 2)) land lo_mask in
  let hi = hi lxor (round_f lo (key + 3) lsr lo_bits) in
  let lo = (lo lxor round_f hi (key + 4)) land lo_mask in
  join lo hi

let perm_inv key v =
  let lo = v land lo_mask and hi = v lsr lo_bits in
  let lo = (lo lxor round_f hi (key + 4)) land lo_mask in
  let hi = hi lxor (round_f lo (key + 3) lsr lo_bits) in
  let lo = (lo lxor round_f hi (key + 2)) land lo_mask in
  let hi = hi lxor (round_f lo (key + 1) lsr lo_bits) in
  join lo hi

(** Null-preserving encryption: swap the cipher images of [0] and
    [perm 0] so that [encrypt key 0 = 0] while the map stays a bijection
    (a transposition composed with a permutation is a permutation). *)
let[@inline] encrypt key v =
  if v = 0 then 0
  else
    let c = perm key v in
    if c = 0 then perm key 0 else c

let[@inline] decrypt key c =
  if c = 0 then 0
  else
    let v = perm_inv key c in
    if v = 0 then perm_inv key 0 else v
