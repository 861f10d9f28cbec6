#!/bin/sh
# Writes the loopback TLS certificates of the live backend's tests, valid
# for about 100 years, into this directory:
#   ca.pem    a self-signed CA; its key is discarded, so it signs nothing else
#   leaf.pem  a server certificate for localhost and 127.0.0.1 signed by that
#             CA, followed by its key
# Run it again only to replace them: `sh tests/tls/generate.sh`.
set -eu
cd "$(dirname "$0")"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cat > "$work/ca.ext" <<'END'
basicConstraints = critical, CA:TRUE
keyUsage = critical, keyCertSign, cRLSign
subjectKeyIdentifier = hash
END
cat > "$work/leaf.ext" <<'END'
basicConstraints = critical, CA:FALSE
keyUsage = critical, digitalSignature
extendedKeyUsage = serverAuth
subjectAltName = DNS:localhost, IP:127.0.0.1
subjectKeyIdentifier = hash
authorityKeyIdentifier = keyid, issuer
END
openssl req -new -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \
    -subj "/CN=reviewlens test CA" -keyout "$work/ca.key" -out "$work/ca.csr"
openssl x509 -req -in "$work/ca.csr" -signkey "$work/ca.key" -days 36500 \
    -extfile "$work/ca.ext" -out ca.pem
openssl req -new -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \
    -subj "/CN=localhost" -keyout "$work/leaf.key" -out "$work/leaf.csr"
openssl x509 -req -in "$work/leaf.csr" -CA ca.pem -CAkey "$work/ca.key" -set_serial "0x$(openssl rand -hex 16)" \
    -days 36500 -extfile "$work/leaf.ext" -out leaf.pem
openssl pkey -in "$work/leaf.key" >> leaf.pem
